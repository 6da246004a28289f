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

// ProportionSweepPoints are the paired-job proportions of Figures 7–10.
var ProportionSweepPoints = []float64{0.025, 0.05, 0.10, 0.20, 0.33}

// PairMaxGap bounds how far apart in submission time the members of a
// synthetic pair may be (proportion sweep and validation grid). Associated
// jobs are submitted together in practice; an unbounded rank-wise match
// across traces with slightly different spans would create pairs arriving
// days apart and grossly inflate hold durations.
const PairMaxGap = 2 * sim.Hour

// ProportionSweep holds the data behind Figures 7–10: per paired-job
// proportion, a baseline plus one cell per scheme combination. Intrepid
// uses the same high-load trace as the load sweep; Eureka uses the §V-E
// special workload (same job count and span as Intrepid, utilization
// ≈ 0.5).
type ProportionSweep struct {
	Config      Config
	Proportions []float64
	Baselines   map[float64]*Baseline
	Cells       []*Cell

	byKey map[cellKey]*Cell // O(1) Cell lookup; see LoadSweep.byKey
}

// Cell returns the sweep cell for (proportion, combo), or nil.
func (s *ProportionSweep) Cell(prop float64, combo Combo) *Cell {
	if s.byKey != nil {
		return s.byKey[cellKey{prop, combo}]
	}
	for _, c := range s.Cells {
		//simlint:allow R5 X is copied verbatim from the sweep grid; lookup is by identity, same as the byKey map key
		if c.X == prop && c.Combo == combo {
			return c
		}
	}
	return nil
}

// RunProportionSweep reproduces the §V-E experiment. Cells fan out across
// Config.Parallelism workers and merge in index order (see RunLoadSweep).
func RunProportionSweep(cfg Config) (*ProportionSweep, error) {
	cfg = cfg.normalized()
	sweep := &ProportionSweep{
		Config:      cfg,
		Proportions: ProportionSweepPoints,
		Baselines:   make(map[float64]*Baseline),
	}

	var units []loadUnit // ui here indexes Proportions
	for pi := range sweep.Proportions {
		for rep := 0; rep < cfg.Reps; rep++ {
			units = append(units, loadUnit{pi, rep, -1})
			for ci := range Combos {
				units = append(units, loadUnit{pi, rep, ci})
			}
		}
	}

	var results []*loadResult
	if cfg.Dist != nil {
		// The Distributor computes the groups — see RunLoadSweep and distResults.
		var err error
		results, err = distResults(KindProp, cfg)
		if err != nil {
			return nil, err
		}
	} else {
		// One generation per (proportion, rep), shared by its cells — see
		// RunLoadSweep.
		pairs, err := buildPropTracePairs(cfg, sweep.Proportions)
		if err != nil {
			return nil, err
		}

		results, err = parallel.Map(context.Background(), cfg.workers(), len(units), func(i int) (*loadResult, error) {
			u := units[i]
			prop := sweep.Proportions[u.ui]
			buf := cellBufPool.Get().(*cellBuffers)
			defer cellBufPool.Put(buf)
			intr, eur := pairs[u.ui*cfg.Reps+u.rep].materialize(buf)
			r := &loadResult{}
			if u.combo < 0 {
				r.base = Baseline{X: prop}
				if err := runBaseline(&r.base, cfg, intr, eur); err != nil {
					return nil, err
				}
			} else {
				combo := Combos[u.combo]
				r.cell = Cell{Combo: combo, X: prop}
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

	perProp := make([]struct {
		base  *Baseline
		cells []*Cell
	}, len(sweep.Proportions))
	for pi, prop := range sweep.Proportions {
		perProp[pi].base = &Baseline{X: prop}
		perProp[pi].cells = make([]*Cell, len(Combos))
		for ci, combo := range Combos {
			perProp[pi].cells[ci] = &Cell{Combo: combo, X: prop}
		}
	}
	for i, u := range units {
		if u.combo < 0 {
			perProp[u.ui].base.add(&results[i].base)
		} else {
			perProp[u.ui].cells[u.combo].add(&results[i].cell)
		}
	}
	sweep.byKey = make(map[cellKey]*Cell, len(sweep.Proportions)*len(Combos))
	for pi, prop := range sweep.Proportions {
		perProp[pi].base.average(cfg.Reps)
		sweep.Baselines[prop] = perProp[pi].base
		for _, c := range perProp[pi].cells {
			c.average(cfg.Reps)
			sweep.byKey[cellKey{c.X, c.Combo}] = c
		}
		sweep.Cells = append(sweep.Cells, perProp[pi].cells...)
	}
	return sweep, nil
}

// proportionTraces builds one paired trace instance for a proportion point.
func proportionTraces(cfg Config, seed uint64, prop float64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaProportionTrace(cfg, seed+1, len(intr))
	if err != nil {
		return nil, nil, err
	}
	rng := workload.NewRNG(seed + 2)
	// The proportion is of ALL jobs (the paper tunes "the proportion of
	// paired jobs"); the pairs themselves come from the size-eligible
	// subsets, and mates are always temporally close (within PairMaxGap)
	// as real associated submissions are.
	want := int(float64(len(intr))*prop + 0.5)
	workload.PairNearest(rng,
		workload.Eligible(intr, MaxPairedIntrepidNodes),
		workload.Eligible(eur, MaxPairedEurekaNodes),
		DomIntrepid, DomEureka, want, PairMaxGap)
	return intr, eur, nil
}

// propLabel renders a proportion the way the paper labels its x-axis.
func propLabel(p float64) string {
	//simlint:allow R5 p is a ProportionSweepPoints grid constant passed through unchanged; identity match, no arithmetic
	if p == 0.025 {
		return "2.5%"
	}
	return fmt.Sprintf("%.0f%%", p*100)
}

// Fig7Table renders "Average waiting times by paired job proportion" —
// Figure 7(a)/(b).
func (s *ProportionSweep) Fig7Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 7(a): Intrepid avg. wait (minutes) by paired proportion",
		"proportion", "combo", "cosched", "base", "difference")
	eureka = metrics.NewTable("Figure 7(b): Eureka avg. wait (minutes) by paired proportion",
		"proportion", "combo", "cosched", "base", "difference")
	for _, prop := range s.Proportions {
		base := s.Baselines[prop]
		for _, combo := range Combos {
			c := s.Cell(prop, combo)
			intrepid.AddRow(propLabel(prop), combo.Label(),
				fmtMin(c.IntrepidWait), fmtMin(base.IntrepidWait),
				fmtMin(c.IntrepidWait-base.IntrepidWait))
			eureka.AddRow(propLabel(prop), combo.Label(),
				fmtMin(c.EurekaWait), fmtMin(base.EurekaWait),
				fmtMin(c.EurekaWait-base.EurekaWait))
		}
	}
	return intrepid, eureka
}

// Fig8Table renders "Avg. slowdowns by paired job proportion" — Figure 8.
func (s *ProportionSweep) Fig8Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 8(a): Intrepid avg. slowdown by paired proportion",
		"proportion", "combo", "cosched", "base", "difference")
	eureka = metrics.NewTable("Figure 8(b): Eureka avg. slowdown by paired proportion",
		"proportion", "combo", "cosched", "base", "difference")
	for _, prop := range s.Proportions {
		base := s.Baselines[prop]
		for _, combo := range Combos {
			c := s.Cell(prop, combo)
			intrepid.AddRow(propLabel(prop), combo.Label(),
				fmtSd(c.IntrepidSlowdown), fmtSd(base.IntrepidSlowdown),
				fmtSd(c.IntrepidSlowdown-base.IntrepidSlowdown))
			eureka.AddRow(propLabel(prop), combo.Label(),
				fmtSd(c.EurekaSlowdown), fmtSd(base.EurekaSlowdown),
				fmtSd(c.EurekaSlowdown-base.EurekaSlowdown))
		}
	}
	return intrepid, eureka
}

// Fig9Table renders "Paired job average synchronization time by paired job
// proportion" — Figure 9(a)/(b).
func (s *ProportionSweep) Fig9Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 9(a): Intrepid avg. paired-job sync time (minutes)",
		"proportion/remote", "local=hold", "local=yield")
	eureka = metrics.NewTable("Figure 9(b): Eureka avg. paired-job sync time (minutes)",
		"proportion/remote", "local=hold", "local=yield")
	for _, prop := range s.Proportions {
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			h := s.Cell(prop, Combo{Intrepid: cosched.Hold, Eureka: remote})
			y := s.Cell(prop, Combo{Intrepid: cosched.Yield, Eureka: remote})
			intrepid.AddRow(fmt.Sprintf("%s/%s", propLabel(prop), remote.Short()),
				fmtMin(h.IntrepidSync), fmtMin(y.IntrepidSync))
		}
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			h := s.Cell(prop, Combo{Intrepid: remote, Eureka: cosched.Hold})
			y := s.Cell(prop, Combo{Intrepid: remote, Eureka: cosched.Yield})
			eureka.AddRow(fmt.Sprintf("%s/%s", propLabel(prop), remote.Short()),
				fmtMin(h.EurekaSync), fmtMin(y.EurekaSync))
		}
	}
	return intrepid, eureka
}

// Fig10Table renders "Service unit loss by paired job proportion" —
// Figure 10(a)/(b).
func (s *ProportionSweep) Fig10Table() (intrepid, eureka *metrics.Table) {
	intrepid = metrics.NewTable("Figure 10(a): Intrepid service-unit loss (local scheme = hold)",
		"proportion/remote", "node_hours", "lost_util_%")
	eureka = metrics.NewTable("Figure 10(b): Eureka service-unit loss (local scheme = hold)",
		"proportion/remote", "node_hours", "lost_util_%")
	for _, prop := range s.Proportions {
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			c := s.Cell(prop, Combo{Intrepid: cosched.Hold, Eureka: remote})
			intrepid.AddRow(fmt.Sprintf("%s/%s", propLabel(prop), remote.Short()),
				fmt.Sprintf("%.0f", c.IntrepidLossNH),
				fmt.Sprintf("%.2f", c.IntrepidLossPct))
		}
		for _, remote := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			c := s.Cell(prop, Combo{Intrepid: remote, Eureka: cosched.Hold})
			eureka.AddRow(fmt.Sprintf("%s/%s", propLabel(prop), remote.Short()),
				fmt.Sprintf("%.0f", c.EurekaLossNH),
				fmt.Sprintf("%.2f", c.EurekaLossPct))
		}
	}
	return intrepid, eureka
}
