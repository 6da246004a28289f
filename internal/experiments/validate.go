package experiments

import (
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
)

// ValidationCase is one cell of the §V-B capability-validation grid.
type ValidationCase struct {
	Combo      Combo
	EurekaUtil float64
	PairProp   float64

	TotalJobs, Completed int
	CoStartViolations    int
	Deadlocked           bool
}

// Validation is the full §V-B result: the grid plus the deadlock
// demonstration with and without the release enhancement.
type Validation struct {
	Cases []ValidationCase
	// DeadlockWithoutRelease reports whether the Figure 2 scenario wedged
	// when the enhancement was disabled (the paper observed it does).
	DeadlockWithoutRelease bool
	// DeadlockWithRelease reports whether it wedged with the enhancement
	// on (the paper observed it never does).
	DeadlockWithRelease bool
}

// Passed reports whether every validation criterion of §V-B holds: all
// cases complete all jobs with zero co-start violations, and the deadlock
// appears exactly when the enhancement is off.
func (v *Validation) Passed() bool {
	for _, c := range v.Cases {
		if c.Completed != c.TotalJobs || c.CoStartViolations != 0 || c.Deadlocked {
			return false
		}
	}
	return v.DeadlockWithoutRelease && !v.DeadlockWithRelease
}

// RunValidation executes the capability-validation grid: every scheme
// combination × Eureka load × pair proportion, plus the deadlock
// demonstration. One group per (load, proportion), generated from that
// point's seed, one cell per combination, each run once: the grid asks
// whether every cell completes and co-starts, not for a mean, so
// Config.Reps does not apply.
func RunValidation(cfg Config) (*Validation, error) {
	cfg = cfg.normalized()
	utils := []float64{0.25, 0.50, 0.75}
	props := []float64{0.05, 0.10}

	cases, err := runGrid(cfg, len(utils)*len(props), len(Combos),
		func(g int) (*tracePair, error) {
			ui, pi := g/len(props), g%len(props)
			return freezePair(validationTraces(cfg, cfg.Seed+uint64(ui*100+pi*10), utils[ui], props[pi]))
		},
		onPair(func(g, ci int, intr, eur []*job.Job) (ValidationCase, error) {
			vc := ValidationCase{Combo: Combos[ci], EurekaUtil: utils[g/len(props)], PairProp: props[g%len(props)]}
			res, err := simulatePair(cfg, cfg.setup(vc.Combo), intr, eur)
			if err != nil {
				return vc, err
			}
			vc.TotalJobs = len(intr) + len(eur)
			vc.Completed = vc.TotalJobs - res.StuckJobs
			vc.CoStartViolations = res.CoStartViolations
			vc.Deadlocked = res.StuckJobs > 0
			return vc, nil
		}))
	if err != nil {
		return nil, err
	}
	return &Validation{
		Cases:                  cases,
		DeadlockWithoutRelease: runFig2Scenario(cfg.SchedCore, 0),
		DeadlockWithRelease:    runFig2Scenario(cfg.SchedCore, cfg.ReleaseInterval),
	}, nil
}

// validationTraces builds one grid point's workload: Eureka at the given
// load, the given share of all Intrepid jobs paired.
func validationTraces(cfg Config, seed uint64, util, prop float64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaTraceAtUtil(cfg, seed+1, util)
	if err != nil {
		return nil, nil, err
	}
	pairNearest(seed, intr, eur, int(float64(len(intr))*prop+0.5))
	return intr, eur, nil
}

// runFig2Scenario reproduces the paper's Figure 2 circular-wait scenario
// and reports whether it deadlocked.
func runFig2Scenario(core string, release sim.Duration) bool {
	a1 := job.New(1, 6, 0, 600, 600)
	a2 := job.New(2, 6, 10, 600, 600)
	b2 := job.New(2, 6, 0, 600, 600)
	b1 := job.New(1, 6, 10, 600, 600)
	a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	a2.Mates = []job.MateRef{{Domain: "B", Job: 2}}
	b2.Mates = []job.MateRef{{Domain: "A", Job: 2}}
	cfg := cosched.DefaultConfig(cosched.Hold)
	cfg.ReleaseInterval = release
	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: "A", Nodes: 6, Cosched: cfg, Trace: []*job.Job{a1, a2}, SchedCore: core},
		{Name: "B", Nodes: 6, Cosched: cfg, Trace: []*job.Job{b2, b1}, SchedCore: core},
	}})
	if err != nil {
		panic(fmt.Sprintf("experiments: fig2 scenario: %v", err))
	}
	return s.Run().Deadlocked
}

// Table renders the validation grid.
func (v *Validation) Table() *metrics.Table {
	t := metrics.NewTable("Capability validation (§V-B)",
		"combo", "eureka_util", "pair_prop", "jobs", "completed", "co_start_viol", "deadlock")
	for _, c := range v.Cases {
		t.AddRow(c.Combo.Label(),
			fmt.Sprintf("%.2f", c.EurekaUtil),
			fmt.Sprintf("%.0f%%", c.PairProp*100),
			fmt.Sprintf("%d", c.TotalJobs),
			fmt.Sprintf("%d", c.Completed),
			fmt.Sprintf("%d", c.CoStartViolations),
			fmt.Sprintf("%v", c.Deadlocked))
	}
	t.Caption = fmt.Sprintf(
		"Figure 2 deadlock scenario: without release enhancement deadlocked=%v; with it deadlocked=%v",
		v.DeadlockWithoutRelease, v.DeadlockWithRelease)
	return t
}
