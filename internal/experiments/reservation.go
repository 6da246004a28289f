package experiments

import (
	"fmt"

	"cosched/internal/baseline"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
)

// ReservationRow captures one system's results in the coscheduling-vs-
// co-reservation comparison. PairSync is the coscheduling sync time, or the
// reservation lead time for co-reservation; LossNH is 0 for the systems
// that never hold.
type ReservationRow struct {
	System string // "cosched(HY)", "cosched(YY)", "co-reservation", "baseline"
	Outcome
}

// ReservationComparison is the §III quantitative argument: advance
// co-reservation also co-starts pairs, but planning every job onto a
// walltime-sized window at submission fragments the machines and hurts
// regular jobs, while coscheduling coordinates at start time only.
type ReservationComparison struct {
	Config Config
	Rows   []ReservationRow
}

// reservationSystems enumerates the compared coordination mechanisms in
// table order; each simulates one rep's traces and reports its Outcome.
var reservationSystems = []struct {
	label string
	run   func(cfg Config, intr, eur []*job.Job) (Outcome, error)
}{
	// (a) uncoordinated baseline.
	{"baseline", coschedSystem(nil)},
	// (b) coscheduling hold-yield; (c) yield-yield.
	{"cosched(HY)", coschedSystem(&Combo{Intrepid: cosched.Hold, Eureka: cosched.Yield})},
	{"cosched(YY)", coschedSystem(&Combo{Intrepid: cosched.Yield, Eureka: cosched.Yield})},
	// (d) metascheduler: a single global portal owning both machines
	// (GridWay/Moab style).
	{"metascheduler", baselineSystem(baseline.Metaschedule, false)},
	// (e) advance co-reservation (HARC/GUR style).
	{"co-reservation", baselineSystem(baseline.CoReserve, true)},
}

// baselineSystem is one §III comparator run over the pair's two machines;
// with leadTime, PairSync is the reservation lead time rather than the
// paired jobs' sync time.
func baselineSystem(run func([]baseline.DomainConfig) (*baseline.Result, error), leadTime bool) func(cfg Config, intr, eur []*job.Job) (Outcome, error) {
	return func(_ Config, intr, eur []*job.Job) (Outcome, error) {
		res, err := run([]baseline.DomainConfig{
			{Name: DomIntrepid, Nodes: IntrepidNodes, Trace: intr},
			{Name: DomEureka, Nodes: EurekaNodes, Trace: eur},
		})
		if err != nil {
			return Outcome{}, err
		}
		o := newOutcome(res.Reports, res.StuckJobs, res.CoStartViolations)
		if leadTime {
			o.PairSync = res.PairLatency.Mean
		}
		return o, nil
	}
}

// coschedSystem is the coupled simulator under one scheme combination, or
// with coscheduling off when combo is nil.
func coschedSystem(combo *Combo) func(cfg Config, intr, eur []*job.Job) (Outcome, error) {
	return func(cfg Config, intr, eur []*job.Job) (Outcome, error) {
		var ps pairSetup
		if combo != nil {
			ps = cfg.setup(*combo)
		}
		return pairOutcome(cfg, ps, intr, eur)
	}
}

// RunReservationComparison runs the same paired workload (Intrepid at high
// load, the §V-E Eureka workload, 10 % pairs) under every system of
// reservationSystems: one group per repetition, generated from the rep
// seed, and one cell per system.
func RunReservationComparison(cfg Config) (*ReservationComparison, error) {
	cfg = cfg.normalized()
	out := &ReservationComparison{Config: cfg}
	results, err := runGrid(cfg, cfg.Reps, len(reservationSystems),
		func(rep int) (*tracePair, error) {
			return freezePair(reservationTraces(cfg, cfg.Seed+uint64(rep*613)))
		},
		onPair(func(_, si int, intr, eur []*job.Job) (Outcome, error) {
			return reservationSystems[si].run(cfg, intr, eur)
		}))
	if err != nil {
		return nil, err
	}
	for si, o := range meanOverReps(results, cfg.Reps, len(reservationSystems)) {
		out.Rows = append(out.Rows, ReservationRow{System: reservationSystems[si].label, Outcome: o})
	}
	return out, nil
}

// reservationTraces builds the comparison's workload.
func reservationTraces(cfg Config, seed uint64) (intr, eur []*job.Job, err error) {
	intr, err = intrepidTrace(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	eur, err = eurekaProportionTrace(cfg, seed+1, len(intr))
	if err != nil {
		return nil, nil, err
	}
	pairNearest(seed, intr, eur, len(intr)/10)
	return intr, eur, nil
}

// Row returns the named system's row, or nil.
func (c *ReservationComparison) Row(system string) *ReservationRow {
	for i := range c.Rows {
		if c.Rows[i].System == system {
			return &c.Rows[i]
		}
	}
	return nil
}

// Table renders the comparison.
func (c *ReservationComparison) Table() *metrics.Table {
	t := metrics.NewTable("Coordination mechanisms compared (§III, 10% pairs)",
		"system", "intrepid_wait_min", "eureka_wait_min", "pair_sync_min",
		"hold_loss_nh", "intrepid_util", "co_start_viol", "stuck")
	for _, r := range c.Rows {
		t.AddRow(r.System,
			fmt.Sprintf("%.1f", r.IntrepidWait),
			fmt.Sprintf("%.1f", r.EurekaWait),
			fmt.Sprintf("%.1f", r.PairSync),
			fmt.Sprintf("%.0f", r.LossNH),
			fmt.Sprintf("%.3f", r.IntrepidUtil),
			fmt.Sprintf("%d", r.CoStartViol),
			fmt.Sprintf("%d", r.Stuck))
	}
	t.Caption = "pair_sync: extra wait imposed on paired jobs (cosched) / reservation lead time (co-reservation)"
	return t
}
