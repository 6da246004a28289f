package experiments

import (
	"context"
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/parallel"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// LoadSweepUtils are the Eureka system-utilization points of Figures 3–6.
var LoadSweepUtils = []float64{0.25, 0.50, 0.75}

// PairWindow is the §V-D association rule: jobs submitted within 2 minutes
// of each other on the two machines are paired.
const PairWindow = 2 * sim.Minute

// LoadSweep holds the data behind Figures 3–6: per Eureka load, a
// baseline plus one cell per scheme combination.
type LoadSweep struct {
	Config    Config
	Utils     []float64
	Baselines map[float64]*Baseline
	Cells     []*Cell // ordered: util-major, combo-minor
	// PairedFraction records the resulting proportion of paired Intrepid
	// jobs per util (the paper reports 5–10%).
	PairedFraction map[float64]float64

	// byKey indexes Cells for O(1) lookup; the figure tables call Cell in
	// O(points × combos) loops, which was an O(cells²) scan overall.
	byKey map[cellKey]*Cell
}

// Cell returns the sweep cell for (util, combo), or nil.
func (s *LoadSweep) Cell(util float64, combo Combo) *Cell {
	if s.byKey != nil {
		return s.byKey[cellKey{util, combo}]
	}
	for _, c := range s.Cells {
		//simlint:allow R5 X is copied verbatim from the sweep grid; lookup is by identity, same as the byKey map key
		if c.X == util && c.Combo == combo {
			return c
		}
	}
	return nil
}

// loadUnit is one independently simulatable cell of the load sweep:
// combo < 0 runs the no-coscheduling baseline for (util, rep).
type loadUnit struct {
	ui, rep, combo int
}

// loadResult is what one unit produces; exactly one of cell/base is set.
type loadResult struct {
	cell Cell
	base Baseline
	frac float64
}

// RunLoadSweep reproduces the §V-D experiment: Intrepid's trace fixed at
// high load, Eureka's load varied, pairs formed by the 2-minute submission
// window, each (util, combo) cell simulated Reps times.
//
// Every (util, combo-or-baseline, rep) cell is independent — it generates
// its own traces from the (util, rep) seed and owns a private engine — so
// the cells fan out across Config.Parallelism workers and are merged back
// in index order, which reproduces the serial accumulation bit-for-bit.
func RunLoadSweep(cfg Config) (*LoadSweep, error) {
	cfg = cfg.normalized()
	sweep := &LoadSweep{
		Config:         cfg,
		Utils:          LoadSweepUtils,
		Baselines:      make(map[float64]*Baseline),
		PairedFraction: make(map[float64]float64),
	}

	// Enumerate all cells up front with a stable index: util-major,
	// rep-middle, baseline-then-combos minor (the serial loop's order).
	var units []loadUnit
	for ui := range sweep.Utils {
		for rep := 0; rep < cfg.Reps; rep++ {
			units = append(units, loadUnit{ui, rep, -1})
			for ci := range Combos {
				units = append(units, loadUnit{ui, rep, ci})
			}
		}
	}

	var results []*loadResult
	if cfg.Dist != nil {
		// The Distributor computes whole groups and the rows land here in
		// unit order (see distResults).
		var err error
		results, err = distResults(KindLoad, cfg)
		if err != nil {
			return nil, err
		}
	} else {
		// Generate each (util, rep) workload exactly once and freeze it; the
		// baseline and every combo cell of that (util, rep) materialize private
		// jobs from the shared snapshot instead of regenerating the traces.
		pairs, err := buildLoadTracePairs(cfg, sweep.Utils)
		if err != nil {
			return nil, err
		}

		results, err = parallel.Map(context.Background(), cfg.workers(), len(units), func(i int) (*loadResult, error) {
			u := units[i]
			util := sweep.Utils[u.ui]
			pair := &pairs[u.ui*cfg.Reps+u.rep]
			buf := cellBufPool.Get().(*cellBuffers)
			defer cellBufPool.Put(buf)
			intr, eur := pair.materialize(buf)
			r := &loadResult{}
			if u.combo < 0 {
				r.base = Baseline{X: util}
				r.frac = pair.frac
				if err := runBaseline(&r.base, cfg, intr, eur); err != nil {
					return nil, err
				}
			} else {
				combo := Combos[u.combo]
				r.cell = Cell{Combo: combo, X: util}
				if err := runCell(&r.cell, cfg, combo, intr, eur); err != nil {
					return nil, err
				}
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Aggregate by index, never by completion order: the unit slice is
	// already rep-ascending per cell, so merging in index order replays
	// the serial loop's float-addition order exactly.
	perUtil := make([]struct {
		base  *Baseline
		cells []*Cell
	}, len(sweep.Utils))
	for ui, util := range sweep.Utils {
		perUtil[ui].base = &Baseline{X: util}
		perUtil[ui].cells = make([]*Cell, len(Combos))
		for ci, combo := range Combos {
			perUtil[ui].cells[ci] = &Cell{Combo: combo, X: util}
		}
	}
	for i, u := range units {
		r := results[i]
		if u.combo < 0 {
			sweep.PairedFraction[sweep.Utils[u.ui]] += r.frac / float64(cfg.Reps)
			perUtil[u.ui].base.add(&r.base)
		} else {
			perUtil[u.ui].cells[u.combo].add(&r.cell)
		}
	}
	sweep.byKey = make(map[cellKey]*Cell, len(sweep.Utils)*len(Combos))
	for ui, util := range sweep.Utils {
		perUtil[ui].base.average(cfg.Reps)
		sweep.Baselines[util] = perUtil[ui].base
		for _, c := range perUtil[ui].cells {
			c.average(cfg.Reps)
			sweep.byKey[cellKey{c.X, c.Combo}] = c
		}
		sweep.Cells = append(sweep.Cells, perUtil[ui].cells...)
	}
	return sweep, nil
}

// loadSweepTraces builds one paired (Intrepid, Eureka) trace instance for
// the load sweep and returns the paired fraction of Intrepid jobs.
func loadSweepTraces(cfg Config, seed uint64, util float64) (intr, eur []*job.Job, frac float64, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	eur, err = eurekaTraceAtUtil(cfg, seed+1, util)
	if err != nil {
		return nil, nil, 0, err
	}
	workload.PairByWindow(
		workload.Eligible(intr, MaxPairedIntrepidNodes),
		workload.Eligible(eur, MaxPairedEurekaNodes),
		DomIntrepid, DomEureka, PairWindow)
	return intr, eur, workload.PairedFraction(intr), nil
}

// Fig3Table renders "Scheduling performance (avg. wait) by Eureka system
// load" — Figure 3(a) and 3(b).
func (s *LoadSweep) Fig3Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 3(a): Intrepid avg. wait (minutes) by Eureka load",
		"eureka_util", "combo", "cosched", "stderr", "base", "difference")
	eureka = metrics.NewTable("Figure 3(b): Eureka avg. wait (minutes) by Eureka load",
		"eureka_util", "combo", "cosched", "stderr", "base", "difference")
	for _, util := range s.Utils {
		base := s.Baselines[util]
		for _, combo := range Combos {
			c := s.Cell(util, combo)
			intrepid.AddRow(fmt.Sprintf("%.2f", util), combo.Label(),
				fmtMin(c.IntrepidWait), fmtErr(c.IntrepidWaitSamples),
				fmtMin(base.IntrepidWait),
				fmtMin(c.IntrepidWait-base.IntrepidWait))
			eureka.AddRow(fmt.Sprintf("%.2f", util), combo.Label(),
				fmtMin(c.EurekaWait), fmtErr(c.EurekaWaitSamples),
				fmtMin(base.EurekaWait),
				fmtMin(c.EurekaWait-base.EurekaWait))
		}
	}
	return intrepid, eureka
}

// Fig4Table renders "Scheduling performance (avg. slowdown) by Eureka
// load" — Figure 4(a) and 4(b).
func (s *LoadSweep) Fig4Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 4(a): Intrepid avg. slowdown by Eureka load",
		"eureka_util", "combo", "cosched", "base", "difference")
	eureka = metrics.NewTable("Figure 4(b): Eureka avg. slowdown by Eureka load",
		"eureka_util", "combo", "cosched", "base", "difference")
	for _, util := range s.Utils {
		base := s.Baselines[util]
		for _, combo := range Combos {
			c := s.Cell(util, combo)
			intrepid.AddRow(fmt.Sprintf("%.2f", util), combo.Label(),
				fmtSd(c.IntrepidSlowdown), fmtSd(base.IntrepidSlowdown),
				fmtSd(c.IntrepidSlowdown-base.IntrepidSlowdown))
			eureka.AddRow(fmt.Sprintf("%.2f", util), combo.Label(),
				fmtSd(c.EurekaSlowdown), fmtSd(base.EurekaSlowdown),
				fmtSd(c.EurekaSlowdown-base.EurekaSlowdown))
		}
	}
	return intrepid, eureka
}

// Fig5Table renders "Average paired job synchronization time by Eureka
// load" — Figure 5(a)/(b). Rows are grouped by (Eureka util, remote
// scheme) with one column per local scheme, matching the paper's x-axis.
func (s *LoadSweep) Fig5Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 5(a): Intrepid avg. paired-job sync time (minutes)",
		"eureka_util/remote", "local=hold", "local=yield")
	eureka = metrics.NewTable("Figure 5(b): Eureka avg. paired-job sync time (minutes)",
		"eureka_util/remote", "local=hold", "local=yield")
	for _, util := range s.Utils {
		// Intrepid's remote machine is Eureka: group by Eureka's scheme,
		// compare Intrepid's local hold vs yield.
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			h := s.Cell(util, Combo{Intrepid: cosched.Hold, Eureka: remote})
			y := s.Cell(util, Combo{Intrepid: cosched.Yield, Eureka: remote})
			intrepid.AddRow(fmt.Sprintf("%.2f/%s", util, remote.Short()),
				fmtMin(h.IntrepidSync), fmtMin(y.IntrepidSync))
		}
		// Eureka's remote machine is Intrepid.
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			h := s.Cell(util, Combo{Intrepid: remote, Eureka: cosched.Hold})
			y := s.Cell(util, Combo{Intrepid: remote, Eureka: cosched.Yield})
			eureka.AddRow(fmt.Sprintf("%.2f/%s", util, remote.Short()),
				fmtMin(h.EurekaSync), fmtMin(y.EurekaSync))
		}
	}
	return intrepid, eureka
}

// Fig6Table renders "Service unit loss by Eureka load" — Figure 6(a)/(b):
// node-hours lost to holding plus the corresponding lost utilization rate,
// for the cells where the local machine uses hold.
func (s *LoadSweep) Fig6Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 6(a): Intrepid service-unit loss (local scheme = hold)",
		"eureka_util/remote", "node_hours", "lost_util_%")
	eureka = metrics.NewTable("Figure 6(b): Eureka service-unit loss (local scheme = hold)",
		"eureka_util/remote", "node_hours", "lost_util_%")
	for _, util := range s.Utils {
		for _, remote := range []struct {
			scheme string
			combo  Combo // Intrepid local hold with this Eureka scheme
		}{
			{"H", Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold}},
			{"Y", Combo{Intrepid: cosched.Hold, Eureka: cosched.Yield}},
		} {
			c := s.Cell(util, remote.combo)
			intrepid.AddRow(fmt.Sprintf("%.2f/%s", util, remote.scheme),
				fmt.Sprintf("%.0f", c.IntrepidLossNH),
				fmt.Sprintf("%.2f", c.IntrepidLossPct))
		}
		for _, remote := range []struct {
			scheme string
			combo  Combo // Eureka local hold with this Intrepid scheme
		}{
			{"H", Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold}},
			{"Y", Combo{Intrepid: cosched.Yield, Eureka: cosched.Hold}},
		} {
			c := s.Cell(util, remote.combo)
			eureka.AddRow(fmt.Sprintf("%.2f/%s", util, remote.scheme),
				fmt.Sprintf("%.0f", c.EurekaLossNH),
				fmt.Sprintf("%.2f", c.EurekaLossPct))
		}
	}
	return intrepid, eureka
}
