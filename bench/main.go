// Command bench is the repository's benchmark: four workloads over the two
// end-to-end paths (the sweep path and the live daemon path), each driven
// through its real public entry points, checked for correct output, and —
// in a separate traced run — broken into a per-layer budget by timing the
// calls into each module from outside. README.md in this directory defines
// every workload and metric; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
// Usage:
//
//	go run ./bench                                  # every workload, untraced then traced, each in a child process
//	go run ./bench -workload live_pairs -trace 1    # one run in this process
//	go run ./bench -compare A/results.json B/results.json
//
// A single-workload run prints one JSON object as its last line:
// {"correct", "attempted", "failed", "metrics"}, holding every end-to-end
// metric (-trace 0) or every per-layer metric (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one metric of the contract. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of either path sees. Every workload reports
// every one; README.md says what "job" and "unit" mean on each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"allocs_per_job", "count", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"unit_p50_ms", "ms", "lower", 0.25},
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) error
}

var workloads = []workloadDef{
	{"sweep_paper", "The sweep path users run (load + proportion sweeps, table render, direct peers): resmgr, backfill, policy and sim do the work; proto, peerlink, journal and live do none.", runSweepPaper},
	{"sweep_wire", "12 coscheduling cells on the load sweep's traces, mates drawn from the seed, every peer call a proto JSON frame over net.Pipe: proto and the round-trip count dominate; the scheduler core is small.", runSweepWire},
	{"mega_cell", "One HH cell at half a million Intrepid jobs (0.83 M in all), the problem-size axis: trace generation, snapshot/arena materialisation and coupled.New are a quarter of the run, and peak RSS is large.", runMegaCell},
	{"live_pairs", "Two daemons wired as coschedd wires them; one closed-loop client co-starts hold/hold pairs over loopback TCP, journal written, not fsynced: peerlink, proto, journal, live work; the scheduler idles.", runLivePairs},
}

// env carries one run's inputs and collects its outputs.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	rec      *recorder // non-nil on a traced run
	tmp      string    // scratch directory inside the checkout
	gc       string    // GC settings this workload runs under

	attempted, failed int
	checks            []string           // output checks that failed
	metrics           map[string]float64 // by metric name
	info              map[string]any     // exact counters, digests, sample counts
}

// failf records a failed output check; the run then reports correct=false.
func (e *env) failf(format string, args ...any) {
	e.checks = append(e.checks, fmt.Sprintf(format, args...))
}

// sweepGC applies cmd/experiments' GC defaults, which sweep_paper and
// mega_cell run under; sweep_wire and live_pairs keep the Go defaults, as
// cosim and coschedd do.
func (e *env) sweepGC() {
	debug.SetGCPercent(1000)
	debug.SetMemoryLimit(1536 << 20)
	e.gc = "GOGC=1000 GOMEMLIMIT=1536MiB"
}

// round is one measured repetition of a workload's unit of work.
type round struct {
	parts   []stretch // each part of the round, in order; the round's wall time is their sum
	jobs    int
	mallocs uint64
	bytes   uint64 // allocated
	units   []time.Duration
}

func (r round) wall() time.Duration {
	var d time.Duration
	for _, p := range r.parts {
		d += p.d
	}
	return d
}

// whole is the round as one stretch: its wall time between the levels
// before its first and after its last part.
func (r round) whole() stretch {
	return stretch{d: r.wall(), before: r.parts[0].before, after: r.parts[len(r.parts)-1].after}
}

// roundFunc does one round's work. It returns the jobs it pushed through
// the scheduler and the wall time of each unit; a nil units means the round
// itself is the unit. A round made of separate calls (a sweep's cells) calls
// lap after each, which splits the round into parts that are timed, and
// scaled to the quiet level, on their own; every round of a workload has the
// same parts.
type roundFunc func(lap func()) (jobs int, units []time.Duration, err error)

// timeRound runs f once and brackets it with level, wall-clock and
// malloc-count reads. Every round starts from a collected heap, so one
// round's garbage is not charged to the next (mega_cell leaves hundreds of
// MB behind).
func timeRound(f roundFunc) (round, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := round{}
	part := stretch{before: pacer.level()}
	last := time.Now()
	lap := func() {
		part.d = time.Since(last)
		part.after = pacer.level()
		r.parts = append(r.parts, part)
		part = stretch{before: part.after}
		last = time.Now()
	}
	var err error
	r.jobs, r.units, err = f(lap)
	lap()
	runtime.ReadMemStats(&after)
	r.mallocs, r.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if r.units == nil {
		r.units = []time.Duration{r.wall()}
	}
	return r, err
}

// measure repeats f for as many rounds as fit into budget, going by the
// length of the last one, and for at least min.
func measure(budget time.Duration, min int, f roundFunc) ([]round, error) {
	var rounds []round
	var last time.Duration
	for start := time.Now(); len(rounds) < min || time.Since(start)+last <= budget; {
		r, err := timeRound(f)
		if err != nil {
			return nil, err
		}
		rounds, last = append(rounds, r), r.wall()
	}
	return rounds, nil
}

// measurePairs alternates an untraced and a traced round until budget has
// elapsed and at least min pairs ran. This machine's speed drifts by 10–20 %
// over a few seconds, so only adjacent rounds can be compared: ref[i] and
// traced[i] ran back to back.
func measurePairs(budget time.Duration, min int, plain, traced roundFunc) (ref, tr []round, err error) {
	for start := time.Now(); len(ref) < min || time.Since(start) < budget; {
		r, err := timeRound(plain)
		if err != nil {
			return nil, nil, err
		}
		t, err := timeRound(traced)
		if err != nil {
			return nil, nil, err
		}
		ref, tr = append(ref, r), append(tr, t)
	}
	return ref, tr, nil
}

// setupReps is how often a sweep workload sets up in one run; setup_s is
// the lower quartile of them, as every time is (live_pairs sets up once per
// epoch instead).
const setupReps = 7

// timeSetups runs a workload's set-up setupReps times; the last one's
// products are what the run measures on.
func timeSetups(setup func() error) ([]stretch, error) {
	var ss []stretch
	for i := 0; i < setupReps; i++ {
		s, err := timeStretch(setup)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// walls returns the wall time of each round, in seconds.
func walls(rounds []round) []float64 {
	ws := make([]float64, len(rounds))
	for i, r := range rounds {
		ws[i] = r.wall().Seconds()
	}
	return ws
}

// wallMedian is the median wall time of rounds, in seconds.
func wallMedian(rounds []round) float64 { return median(walls(rounds)) }

// quietWall is the wall time of one round at the machine's quiet level q, in
// seconds: the sum over the round's parts of the lower quartile, over the
// rounds, of that part's scaled time (see pace.go).
func quietWall(rounds []round, q float64) float64 {
	sum := 0.0
	for i := range rounds[0].parts {
		var ts []float64
		for _, r := range rounds {
			ts = append(ts, r.parts[i].atQuiet(q))
		}
		sum += lowerQuartile(ts)
	}
	return sum
}

// setEndToEnd derives the end-to-end metrics from a run's set-ups and
// rounds. Every time is scaled to the machine's quiet level and is the lower
// quartile over the run (see pace.go): of the set-up, of each part of the
// round, and of the median of the round's unit latencies. allocs_per_job is
// a count, not a time, and is the median over rounds. A round that is its
// own unit reports its wall time as the unit's.
func (e *env) setEndToEnd(setups []stretch, rounds []round) {
	q := settledQuiet(quietFile, pacer.quiet())
	var jobs, allocs, bytes, p50, p95, ss, raw, levels []float64
	samples := 0
	for _, r := range rounds {
		jobs = append(jobs, float64(r.jobs))
		allocs = append(allocs, float64(r.mallocs)/float64(r.jobs))
		bytes = append(bytes, float64(r.bytes)/(1<<20))
		ms := inUnits(r.units, time.Millisecond)
		scale := r.whole().scale(q)
		p50, p95 = append(p50, percentile(ms, 50)*scale), append(p95, percentile(ms, 95)*scale)
		samples += len(ms)
		levels = append(levels, 1/scale)
	}
	for _, s := range setups {
		ss, raw = append(ss, s.atQuiet(q)), append(raw, s.d.Seconds())
	}
	wall := quietWall(rounds, q)
	e.metrics["setup_s"] = lowerQuartile(ss)
	e.metrics["jobs_per_s"] = median(jobs) / wall
	e.metrics["allocs_per_job"] = median(allocs)
	e.metrics["peak_rss_mb"] = peakRSSMiB()
	if len(rounds[0].units) == 1 {
		e.metrics["unit_p50_ms"] = wall * 1e3
	} else {
		e.metrics["unit_p50_ms"] = lowerQuartile(p50)
		// Not gated (see README.md): it moves by a sixth between runs.
		e.info["unit_p95_ms"] = lowerQuartile(p95)
	}
	e.info["rounds"] = len(rounds)
	e.info["round_s"] = walls(rounds)
	e.info["round_level"] = levels
	e.info["round_alloc_mb"] = median(bytes)
	e.info["quiet_loop_ms"] = q * 1e3
	e.info["quiet_loop_ms_this_run"] = pacer.quiet() * 1e3
	e.info["setups"] = len(setups)
	e.info["setup_s"] = raw
	e.info["unit_samples"] = samples
}

// machine records where a result was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GC         string `json:"gc"`
	ScratchFS  string `json:"scratch_fs"`
	Generator  string `json:"generator"`
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a single-workload run prints.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is everything one run leaves in -out: the outcome plus what is
// needed to interpret and compare it.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Machine  machine        `json:"machine"`
	Outcome  outcome        `json:"outcome"`
	Checks   []string       `json:"failed_checks,omitempty"`
	Info     map[string]any `json:"info"`
	Spans    []span         `json:"spans,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in-process and print its outcome as the last line; empty runs every workload in child processes")
		seed    = flag.Uint64("seed", 1, "seed for the trace generator and job shapes; the program under test only sees the generated inputs")
		seconds = flag.Int("seconds", 28, "how long one run measures")
		trace   = flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs with spans around every layer call and reports the per-layer metrics")
		out     = flag.String("out", "", "directory for run records (and spans of traced runs); full mode defaults to .bench_build/out")
		runs    = flag.Int("runs", 3, "full mode: untraced runs per workload, on consecutive seeds")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments, per (end-to-end metric, workload)")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two results.json paths, got %d", flag.NArg())
			break
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace, *out)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// scratchRoot is where the benchmark keeps journals, child records and
// build products: inside the checkout and ignored by git.
const scratchRoot = ".bench_build"

// runOne runs one workload in this process.
func runOne(name string, seed uint64, seconds, trace int, out string) error {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	// One P. Every workload generates its load from one goroutine, and one
	// pair or one peer call is in flight at a time, so a second P has
	// nothing to run; what it adds is a race between the idle P waking up
	// (as slow as the host makes an idle vCPU's wake-up) and the busy P
	// going idle itself. On the 2-vCPU reference machine one P made
	// sweep_wire 70 % and live_pairs 60 % faster than two, and halved their
	// spread between runs.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{
		workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
		tmp: tmp, gc: "Go defaults",
		metrics: make(map[string]float64), info: make(map[string]any),
	}
	defs := endToEnd
	if trace != 0 {
		e.rec = newRecorder()
		defs = perLayer
	}
	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	oc := outcome{
		Correct:   len(e.checks) == 0 && e.failed == 0,
		Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]value, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		// A per-layer metric a workload does not set is a layer that does
		// no work on it (or is not measured there): reported as 0.
		oc.Metrics[d.Name] = value{e.metrics[d.Name], d.Unit}
	}
	for n := range e.metrics {
		if !known[n] {
			return fmt.Errorf("%s reported undeclared metric %q", name, n)
		}
	}
	rec := record{
		Workload: name, Seed: seed, Seconds: float64(seconds), Trace: trace,
		Machine: machine{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GC: e.gc, ScratchFS: fsType(tmp),
			Generator: "closed loop, 1 client, 1 goroutine: generator lateness n/a",
		},
		Outcome: oc, Checks: e.checks, Info: e.info,
	}
	printRecord(&rec, defs)
	if out != "" {
		rec.Spans = e.rec.since(0)
		if err := writeJSON(recordPath(out, name, seed, trace), &rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(&oc)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !oc.Correct {
		return fmt.Errorf("%s: %d of %d failed, %d output check(s) failed", name, oc.Failed, oc.Attempted, len(e.checks))
	}
	return nil
}

// printRecord prints the human-readable part of a run: where it ran, every
// metric by name and unit, exact counters, and failed checks.
func printRecord(r *record, defs []metricDef) {
	m := r.Machine
	fmt.Printf("workload %s seed %d trace %d seconds %g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s gc[%s] scratch_fs=%s\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.GC, m.ScratchFS)
	fmt.Printf("load generator: %s\n", m.Generator)
	for _, d := range defs {
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, r.Outcome.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-29s %v\n", k, r.Info[k])
	}
	for _, c := range r.Checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

func recordPath(dir, workload string, seed uint64, trace int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
