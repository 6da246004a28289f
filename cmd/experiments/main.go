// Command experiments reproduces the evaluation of Tang et al. (ICPP 2011):
// the §V-B capability validation and Figures 3–10.
//
// Usage:
//
//	experiments -exp all                 # everything at paper scale
//	experiments -exp fig3 -factor 0.1    # one figure at 10% job count
//	experiments -exp load,ablations -reps 3   # average each cell over 3 runs
//	experiments -exp all -parallel 0     # fan cells across every core
//
// Figures come in pairs that share simulations (3–6 share the load sweep,
// 7–10 the proportion sweep); asking for any figure in a group runs the
// whole group's simulations once and prints only the requested tables.
//
// -reps averages the load and proportion sweeps, the ablations and the
// reservation comparison over that many runs per cell; validate and nway
// run every cell once whatever -reps says.
//
// Every experiment fans its cells across -parallel workers (0 = one per
// core, 1 = serial). Each group of cells derives its traces from its own
// seed and results are aggregated by cell index, so stdout is
// byte-identical for every -parallel value and every run; wall-clock
// times and the paths of written files go to stderr.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"cosched/internal/experiments"
	"cosched/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: "+experimentUsage)
		seed    = flag.Uint64("seed", 1, "workload random seed")
		factor  = flag.Float64("factor", 1.0, "job-count scale factor (1.0 = paper scale)")
		reps    = flag.Int("reps", 1, "repetitions averaged per cell of the load and proportion sweeps, the ablations and the reservation comparison (paper used 10); validate and nway run every cell once")
		svgDir  = flag.String("svg", "", "also render each figure as an SVG into this directory")
		par     = flag.Int("parallel", 0, "sweep-cell workers: 0 = one per core, 1 = serial, N = at most N")
		profDir = flag.String("pprof", "", "write cpu.pprof and allocs.pprof profiles of the run into this directory")
	)
	flag.Parse()
	want, err := parseExperiments(*exp)
	if err == nil {
		err = checkSizes(*factor, *reps, *par)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	// The arena/free-list memory architecture keeps the live set small and
	// bounded, so the default GOGC=100 collects far too eagerly: with a
	// few-MiB live heap the sweep spends ~30% of CPU in GC marking and
	// write barriers. A relaxed target raises the headroom between
	// collections; the soft memory limit is the backstop that forces
	// collection pressure back up before RSS can run away, which is why
	// GOGC=off would be wrong here.
	debug.SetGCPercent(1000)
	debug.SetMemoryLimit(1536 << 20)

	cfg := experiments.DefaultConfig(*seed, *factor)
	cfg.Reps = *reps
	cfg.Parallelism = *par

	if *profDir != "" {
		stop, err := startProfiles(*profDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}

	all := want["all"]
	anyOf := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	if anyOf("validate") {
		run("capability validation", func() error {
			v, err := experiments.RunValidation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(v.Table().Render())
			if v.Passed() {
				fmt.Println("VALIDATION PASSED: all combinations coschedule; deadlock only without the release enhancement")
			} else {
				fmt.Println("VALIDATION FAILED")
			}
			return nil
		})
	}
	for _, sw := range []struct {
		name, title string
		firstFig    int
		run         func(experiments.Config) (*experiments.Sweep, error)
	}{
		{"load", "load sweep (Figures 3-6)", 3, experiments.RunLoadSweep},
		{"prop", "proportion sweep (Figures 7-10)", 7, experiments.RunProportionSweep},
	} {
		fig := func(i int) string { return fmt.Sprintf("fig%d", sw.firstFig+i) }
		if !anyOf(sw.name, fig(0), fig(1), fig(2), fig(3)) {
			continue
		}
		run(sw.title, func() error {
			sweep, err := sw.run(cfg)
			if err != nil {
				return err
			}
			if sweep.Kind == experiments.KindLoad {
				// Iterate Points, not the map: map range order would make
				// otherwise byte-identical runs print in different orders.
				for _, util := range sweep.Points {
					fmt.Printf("paired fraction at eureka_util %.2f: %.1f%%\n", util, sweep.PairedFraction[util]*100)
				}
				fmt.Println()
			}
			if err := writeCharts(*svgDir, sweep.Charts()); err != nil {
				return err
			}
			// A sweep numbers its own figures: Fig3Table on the proportion
			// sweep is Figure 7, and so on.
			for i, tables := range []func() (a, b *metrics.Table){
				sweep.Fig3Table, sweep.Fig4Table, sweep.Fig5Table, sweep.Fig6Table,
			} {
				if anyOf(sw.name, fig(i)) {
					a, b := tables()
					fmt.Println(a.Render())
					fmt.Println(b.Render())
				}
			}
			return nil
		})
	}
	if anyOf("reservation") {
		run("co-reservation comparison (§III)", func() error {
			c, err := experiments.RunReservationComparison(cfg)
			if err != nil {
				return err
			}
			fmt.Println(c.Table().Render())
			return nil
		})
	}
	if anyOf("nway") {
		run("N-way extension sweep (§VI)", func() error {
			s, err := experiments.RunNWaySweep(cfg)
			if err != nil {
				return err
			}
			fmt.Println(s.Table().Render())
			return writeCharts(*svgDir, []experiments.NamedChart{s.Chart()})
		})
	}
	if anyOf("ablations") {
		run("design ablations", func() error {
			a, err := experiments.RunAblations(cfg)
			if err != nil {
				return err
			}
			fmt.Println(a.Table().Render())
			return nil
		})
	}
}

// experimentNames is what -exp accepts; experimentUsage is the same list
// as the flag help and the unknown-name error print it.
var (
	experimentNames = []string{
		"validate", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"load", "prop", "reservation", "nway", "ablations", "all",
	}
	experimentUsage = strings.Join(experimentNames, ", ")
)

// parseExperiments turns the comma-separated -exp value into the set of
// experiments to run. Every name must be known: one typo in a list fails
// the whole invocation instead of silently running the rest.
func parseExperiments(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	var unknown []string
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		if slices.Contains(experimentNames, w) {
			want[w] = true
		} else {
			unknown = append(unknown, strconv.Quote(w))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s (want %s)", strings.Join(unknown, ", "), experimentUsage)
	}
	return want, nil
}

// checkSizes refuses the sizes experiments.Config would otherwise repair
// in silence (a non-positive -factor or -reps becomes 1) or pass through
// (a negative -parallel): a run that is not the one asked for should not
// start.
func checkSizes(factor float64, reps, par int) error {
	switch {
	case !(factor > 0) || math.IsInf(factor, 0): // !(x > 0) also catches NaN
		return fmt.Errorf("-factor %v: the job-count scale must be a positive finite number", factor)
	case reps < 1:
		return fmt.Errorf("-reps %d: need at least one repetition per cell", reps)
	case par < 0:
		return fmt.Errorf("-parallel %d: want 0 (one worker per core), 1 (serial) or a positive cap", par)
	}
	return nil
}

// writeCharts renders the named charts as SVG files under dir (no-op when
// dir is empty).
func writeCharts(dir string, charts []experiments.NamedChart) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, nc := range charts {
		svg, err := nc.Chart.SVG()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, nc.Name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// startProfiles begins a CPU profile and returns a stop function that
// finishes it and writes an allocation profile, both under dir. The alloc
// profile records cumulative allocation sites (sample_index=alloc_space/
// alloc_objects in `go tool pprof`), which is what the memory-architecture
// work optimizes for.
func startProfiles(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", cpuPath)
		allocPath := filepath.Join(dir, "allocs.pprof")
		allocFile, err := os.Create(allocPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			return
		}
		defer allocFile.Close()
		runtime.GC() // flush the final allocation samples
		if err := pprof.Lookup("allocs").WriteTo(allocFile, 0); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", allocPath)
	}, nil
}

// run times one experiment group and exits on error. The timing goes to
// stderr, as do the "wrote" lines, so stdout is the same bytes on every
// run of the same flags.
func run(name string, f func() error) {
	fmt.Printf("=== %s ===\n", name)
	start := time.Now()
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", name, time.Since(start).Round(time.Millisecond))
	fmt.Println()
}
