package experiments

import (
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
)

// AblationRow is one configuration variant's outcome on the shared
// hold-hold, 10%-paired, medium-Eureka-load workload.
type AblationRow struct {
	Group   string // which knob is being swept
	Variant string // the knob's value
	Outcome
}

// Ablations sweeps the design knobs DESIGN.md §5 calls out — release
// interval, held-fraction cap, yield escalation, backfill mode, runtime
// estimator — holding everything else at the §V defaults.
type Ablations struct {
	Config Config
	Rows   []AblationRow
}

// ablationVariant describes one cell: a knob, its value, and how the
// hold-hold setup is changed to get there.
type ablationVariant struct {
	group, name string
	mutate      func(*pairSetup)
}

// RunAblations executes every variant.
func RunAblations(cfg Config) (*Ablations, error) {
	cfg = cfg.normalized()
	out := &Ablations{Config: cfg}

	variants := []ablationVariant{}
	for _, min := range []int64{5, 10, 20, 40, 80} {
		min := min
		variants = append(variants, ablationVariant{
			group: "release_interval", name: fmt.Sprintf("%dmin", min),
			mutate: func(s *pairSetup) {
				s.intrepid.ReleaseInterval = sim.Duration(min) * sim.Minute
				s.eureka.ReleaseInterval = sim.Duration(min) * sim.Minute
			},
		})
	}
	for _, frac := range []float64{0.1, 0.2, 0.5, 1.0} {
		frac := frac
		variants = append(variants, ablationVariant{
			group: "max_held_fraction", name: fmt.Sprintf("%.0f%%", frac*100),
			mutate: func(s *pairSetup) {
				s.intrepid.MaxHeldFraction = frac
				s.eureka.MaxHeldFraction = frac
			},
		})
	}
	variants = append(variants,
		ablationVariant{group: "yield_escalation", name: "plain_yield",
			mutate: func(s *pairSetup) {
				s.intrepid.Scheme, s.eureka.Scheme = cosched.Yield, cosched.Yield
			}},
		ablationVariant{group: "yield_escalation", name: "max_yields_3",
			mutate: func(s *pairSetup) {
				s.intrepid.Scheme, s.eureka.Scheme = cosched.Yield, cosched.Yield
				s.intrepid.MaxYields, s.eureka.MaxYields = 3, 3
			}},
		ablationVariant{group: "yield_escalation", name: "yield_boost",
			mutate: func(s *pairSetup) {
				s.intrepid.Scheme, s.eureka.Scheme = cosched.Yield, cosched.Yield
				s.intrepid.YieldBoost, s.eureka.YieldBoost = true, true
			}},
		ablationVariant{group: "backfill", name: "easy",
			mutate: func(s *pairSetup) { s.backfillMode = "easy" }},
		ablationVariant{group: "backfill", name: "conservative",
			mutate: func(s *pairSetup) { s.backfillMode = "conservative" }},
		ablationVariant{group: "estimator", name: "walltime",
			mutate: func(s *pairSetup) { s.estimator = "walltime" }},
		ablationVariant{group: "estimator", name: "user-average",
			mutate: func(s *pairSetup) { s.estimator = "user-average" }},
	)

	// One group per repetition — the shared workload, generated from the rep
	// seed — and one cell per variant.
	results, err := runGrid(cfg, cfg.Reps, len(variants),
		func(rep int) (*tracePair, error) {
			return freezePair(ablationTraces(cfg, cfg.Seed+uint64(rep*271)))
		},
		onPair(func(_, vi int, intr, eur []*job.Job) (Outcome, error) {
			setup := cfg.setup(Combo{Intrepid: cosched.Hold, Eureka: cosched.Hold})
			variants[vi].mutate(&setup)
			return pairOutcome(cfg, setup, intr, eur)
		}))
	if err != nil {
		return nil, err
	}
	for vi, o := range meanOverReps(results, cfg.Reps, len(variants)) {
		out.Rows = append(out.Rows, AblationRow{Group: variants[vi].group, Variant: variants[vi].name, Outcome: o})
	}
	return out, nil
}

// ablationTraces builds the shared ablation workload: Intrepid high load,
// Eureka medium, 10% pairs.
func ablationTraces(cfg Config, seed uint64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaTraceAtUtil(cfg, seed+1, 0.5)
	if err != nil {
		return nil, nil, err
	}
	pairNearest(seed, intr, eur, len(intr)/10)
	return intr, eur, nil
}

// Rows returns the variants within one group.
func (a *Ablations) Group(name string) []AblationRow {
	var out []AblationRow
	for _, r := range a.Rows {
		if r.Group == name {
			out = append(out, r)
		}
	}
	return out
}

// Table renders the ablation sweep.
func (a *Ablations) Table() *metrics.Table {
	t := metrics.NewTable("Design ablations (hold-hold, 10% pairs, Eureka util 0.50)",
		"knob", "variant", "intrepid_wait_min", "eureka_wait_min",
		"pair_sync_min", "hold_loss_nh", "viol", "stuck")
	for _, r := range a.Rows {
		t.AddRow(r.Group, r.Variant,
			fmt.Sprintf("%.1f", r.IntrepidWait),
			fmt.Sprintf("%.1f", r.EurekaWait),
			fmt.Sprintf("%.1f", r.PairSync),
			fmt.Sprintf("%.0f", r.LossNH),
			fmt.Sprintf("%d", r.CoStartViol),
			fmt.Sprintf("%d", r.Stuck))
	}
	t.Caption = "yield_escalation variants run yield-yield; all others hold-hold"
	return t
}
