// Package experiments reproduces the evaluation of Tang et al. (ICPP 2011)
// §V: the capability validation (§V-B), the Eureka-load sweep behind
// Figures 3–6, and the paired-proportion sweep behind Figures 7–10 — plus
// this repo's own §III comparison, design ablations and N-way extension.
//
// Each experiment builds calibrated synthetic traces (see
// internal/workload for the calibration method and the substitution note
// in DESIGN.md), runs the coupled simulator over a grid of groups × cells
// through the one runner in grid.go, and returns typed rows that
// cmd/experiments renders as tables.
package experiments

import (
	"fmt"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/parallel"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// Domain names used throughout the evaluation.
const (
	DomIntrepid = "intrepid"
	DomEureka   = "eureka"
)

// System sizes (§V-A: "real system configurations").
const (
	IntrepidNodes = 40960
	EurekaNodes   = 100
)

// Pairing-eligibility caps: only small-to-moderate jobs participate in
// cross-domain pairs. The real traces pair simulations with their
// analysis/visualization counterparts, which are moderate-sized runs — a
// full-machine capability job has no live viz mate, and a full-Eureka job
// cannot coexist with held analysis nodes. Without the caps the synthetic
// uniform-over-size pairing lets multi-ten-thousand-node holds accumulate
// and drives the hold schemes into a regime the paper never measured (see
// DESIGN.md substitutions).
const (
	MaxPairedIntrepidNodes = 4096
	MaxPairedEurekaNodes   = 32
)

// Combo is one scheme configuration pair: Intrepid's local scheme and
// Eureka's local scheme. The paper labels combos by (Intrepid, Eureka),
// e.g. HY = hold on Intrepid, yield on Eureka.
type Combo struct {
	Intrepid cosched.Scheme
	Eureka   cosched.Scheme
}

// Label returns the paper's two-letter combo name (HH, HY, YH, YY).
func (c Combo) Label() string { return c.Intrepid.Short() + c.Eureka.Short() }

// Combos lists the four combinations in the paper's figure order.
var Combos = []Combo{
	{cosched.Hold, cosched.Hold},
	{cosched.Hold, cosched.Yield},
	{cosched.Yield, cosched.Hold},
	{cosched.Yield, cosched.Yield},
}

// Config holds the sweep-independent experiment parameters.
type Config struct {
	// Seed selects the workload random streams.
	Seed uint64
	// JobFactor scales every trace's job count; 1.0 is paper scale
	// (9,219 Intrepid jobs/month). Tests and benches use smaller factors
	// for speed; relative shapes are stable under scaling.
	JobFactor float64
	// Reps runs each cell this many times with distinct seeds and
	// averages the scalar metrics (the paper ran 10). The sweeps, the
	// ablations and the reservation comparison average; the validation
	// grid and the N-way sweep run every cell once and do not read it.
	Reps int
	// ReleaseInterval is the hold-release period (paper: 20 minutes).
	ReleaseInterval sim.Duration
	// IntrepidUtil is the fixed Intrepid offered load (§V-D: "current
	// Intrepid system load is high and stable").
	IntrepidUtil float64
	// MaxHeldFraction is the §IV-E2 held-nodes threshold ("avoid having
	// most of the computing nodes in hold status"): a job whose hold
	// would push the held fraction above it yields instead. The paper's
	// experiments ran with the whole system holdable (§V-B), which is the
	// default here (1.0); the threshold is exercised by RunAblations.
	MaxHeldFraction float64
	// SchedCore names the resource manager scheduling core forwarded to
	// every simulated domain: "" or "incremental" for the default
	// incremental core, "reference" for the original allocate-and-sort
	// path. Both must produce byte-identical tables; the differential
	// tests assert it.
	SchedCore string
	// Parallelism caps how many cells execute concurrently: 0 uses one
	// worker per core (GOMAXPROCS), 1 reproduces the serial path, and
	// N > 1 uses min(N, cells) workers. Every cell owns a private engine
	// and private jobs materialized from its group's traces, and results
	// are aggregated by cell index, so every setting yields bit-identical
	// tables; only wall-clock time changes.
	Parallelism int
	// Audit attaches an invariant.Auditor to both domains of every
	// Intrepid/Eureka coupled cell (simulatePair) and a cross-domain
	// deadlock Monitor to the cell: each lifecycle event is
	// re-checked against the scheduler's invariants and the wait-for graph
	// is scanned for circular waits outliving the release interval. Any
	// violation fails the run with an error. Used by the differential
	// tests; costs roughly one pool-and-queue scan per lifecycle event.
	Audit bool
	// Dist, when non-nil, has a Distributor compute the load and proportion
	// sweeps' rows instead of runGrid. The rows merge in group-index order
	// either way, so any distributor that honors the RunGroups contract
	// yields tables byte-identical to the in-process run. Never serialized.
	Dist Distributor `json:"-"`
}

// DefaultConfig returns the paper's experiment parameters at the given
// scale factor.
func DefaultConfig(seed uint64, jobFactor float64) Config {
	return Config{
		Seed:            seed,
		JobFactor:       jobFactor,
		Reps:            1,
		ReleaseInterval: 20 * sim.Minute,
		IntrepidUtil:    0.68,
		MaxHeldFraction: 1.0,
	}
}

func (c Config) normalized() Config {
	if c.JobFactor <= 0 {
		c.JobFactor = 1
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.ReleaseInterval == 0 {
		c.ReleaseInterval = 20 * sim.Minute
	}
	if c.IntrepidUtil <= 0 {
		c.IntrepidUtil = 0.68
	}
	if c.MaxHeldFraction <= 0 {
		c.MaxHeldFraction = 1.0
	}
	return c
}

// workers resolves Parallelism to a concrete worker count.
func (c Config) workers() int { return parallel.Workers(c.Parallelism) }

// intrepidTrace builds one month of Intrepid-like workload at the
// configured utilization.
func intrepidTrace(cfg Config, seed uint64) ([]*job.Job, error) {
	spec := workload.IntrepidSpec(seed)
	spec.Jobs = scaleCount(spec.Jobs, cfg.JobFactor)
	jobs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ScaleToUtilization(jobs, IntrepidNodes, cfg.IntrepidUtil); err != nil {
		return nil, err
	}
	return jobs, nil
}

// eurekaTraceAtUtil builds a month-like Eureka workload at the target
// utilization using the paper's method: the job count tracks the target
// load (packing more months of arrivals into the span) and one constant
// arrival-interval factor fine-tunes the offered load.
func eurekaTraceAtUtil(cfg Config, seed uint64, util float64) ([]*job.Job, error) {
	spec := workload.EurekaSpec(seed)
	base, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	offered := workload.OfferedLoad(base, EurekaNodes)
	// Re-generate with a job count proportional to the target so the
	// span stays near one month after fine-tuning.
	spec.Jobs = scaleCount(int(float64(spec.Jobs)*util/offered+0.5), cfg.JobFactor)
	jobs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ScaleToUtilization(jobs, EurekaNodes, util); err != nil {
		return nil, err
	}
	return jobs, nil
}

// eurekaProportionTrace builds the §V-E special workload: the same job
// count and span as the Intrepid trace at medium (≈0.5) utilization, so
// pair proportions can be tuned rank-wise on both traces.
func eurekaProportionTrace(cfg Config, seed uint64, intrepidJobs int) ([]*job.Job, error) {
	spec := workload.EurekaSpec(seed)
	spec.Jobs = intrepidJobs
	// Shorter runtimes keep 9,219 jobs at ≈0.5 load within one month.
	spec.RuntimeMu = 6.05
	spec.RuntimeSigma = 1.10
	spec.MaxRuntime = 3 * sim.Hour
	jobs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ScaleToUtilization(jobs, EurekaNodes, 0.5); err != nil {
		return nil, err
	}
	return jobs, nil
}

// pairNearest links want nearest-in-time pairs between the size-eligible
// subsets of the two traces; mates are at most PairMaxGap apart, as real
// associated submissions are. The draw uses seed+2 (seed and seed+1
// generated the traces).
func pairNearest(seed uint64, intr, eur []*job.Job, want int) {
	workload.PairNearest(workload.NewRNG(seed+2),
		workload.Eligible(intr, MaxPairedIntrepidNodes),
		workload.Eligible(eur, MaxPairedEurekaNodes),
		DomIntrepid, DomEureka, want, PairMaxGap)
}

func scaleCount(n int, factor float64) int {
	s := int(float64(n)*factor + 0.5)
	if s < 10 {
		s = 10
	}
	return s
}

// Cell is one simulated configuration cell, averaged over Reps runs.
type Cell struct {
	Combo Combo
	// X is the sweep variable: Eureka utilization (load sweep) or paired
	// proportion (proportion sweep).
	X float64

	// Per-domain averaged metrics (minutes / ratios / node-hours).
	IntrepidWait, EurekaWait         float64
	IntrepidSlowdown, EurekaSlowdown float64
	IntrepidSync, EurekaSync         float64
	IntrepidLossNH, EurekaLossNH     float64
	IntrepidLossPct, EurekaLossPct   float64

	PairedJobs  int
	Stuck       int
	CoStartViol int

	// Per-repetition samples of the headline wait metrics, for
	// run-to-run error bars in the tables (empty with Reps == 1).
	IntrepidWaitSamples, EurekaWaitSamples []float64
}

// Baseline is the no-coscheduling reference for one sweep point.
type Baseline struct {
	X                                float64
	IntrepidWait, EurekaWait         float64
	IntrepidSlowdown, EurekaSlowdown float64
	IntrepidUtil, EurekaUtil         float64
}

// newCell folds one simulated cell's reports into a single-repetition
// Cell; the caller fills in Combo and X.
func newCell(res *coupled.Result) Cell {
	ri := res.Reports[DomIntrepid]
	re := res.Reports[DomEureka]
	return Cell{
		IntrepidWait:        ri.Wait.Mean,
		EurekaWait:          re.Wait.Mean,
		IntrepidWaitSamples: []float64{ri.Wait.Mean},
		EurekaWaitSamples:   []float64{re.Wait.Mean},
		IntrepidSlowdown:    ri.Slowdown.Mean,
		EurekaSlowdown:      re.Slowdown.Mean,
		IntrepidSync:        ri.PairedSync.Mean,
		EurekaSync:          re.PairedSync.Mean,
		IntrepidLossNH:      ri.LostNodeHours,
		EurekaLossNH:        re.LostNodeHours,
		IntrepidLossPct:     100 * ri.LostUtilization,
		EurekaLossPct:       100 * re.LostUtilization,
		PairedJobs:          ri.PairedCount,
		Stuck:               res.StuckJobs,
		CoStartViol:         res.CoStartViolations,
	}
}

// add accumulates another repetition's result into c (see meanOverReps).
func (c *Cell) add(o *Cell) {
	c.IntrepidWait += o.IntrepidWait
	c.EurekaWait += o.EurekaWait
	c.IntrepidWaitSamples = append(c.IntrepidWaitSamples, o.IntrepidWaitSamples...)
	c.EurekaWaitSamples = append(c.EurekaWaitSamples, o.EurekaWaitSamples...)
	c.IntrepidSlowdown += o.IntrepidSlowdown
	c.EurekaSlowdown += o.EurekaSlowdown
	c.IntrepidSync += o.IntrepidSync
	c.EurekaSync += o.EurekaSync
	c.IntrepidLossNH += o.IntrepidLossNH
	c.EurekaLossNH += o.EurekaLossNH
	c.IntrepidLossPct += o.IntrepidLossPct
	c.EurekaLossPct += o.EurekaLossPct
	c.PairedJobs += o.PairedJobs
	c.Stuck += o.Stuck
	c.CoStartViol += o.CoStartViol
}

func (c *Cell) average(reps int) {
	f := 1.0 / float64(reps)
	c.IntrepidWait *= f
	c.EurekaWait *= f
	c.IntrepidSlowdown *= f
	c.EurekaSlowdown *= f
	c.IntrepidSync *= f
	c.EurekaSync *= f
	c.IntrepidLossNH *= f
	c.EurekaLossNH *= f
	c.IntrepidLossPct *= f
	c.EurekaLossPct *= f
}

// newBaseline folds the no-coscheduling run of one trace pair into a
// single-repetition Baseline; the caller fills in X.
func newBaseline(res *coupled.Result) Baseline {
	ri := res.Reports[DomIntrepid]
	re := res.Reports[DomEureka]
	return Baseline{
		IntrepidWait:     ri.Wait.Mean,
		EurekaWait:       re.Wait.Mean,
		IntrepidSlowdown: ri.Slowdown.Mean,
		EurekaSlowdown:   re.Slowdown.Mean,
		IntrepidUtil:     ri.Utilization,
		EurekaUtil:       re.Utilization,
	}
}

// add accumulates another repetition's baseline into b.
func (b *Baseline) add(o *Baseline) {
	b.IntrepidWait += o.IntrepidWait
	b.EurekaWait += o.EurekaWait
	b.IntrepidSlowdown += o.IntrepidSlowdown
	b.EurekaSlowdown += o.EurekaSlowdown
	b.IntrepidUtil += o.IntrepidUtil
	b.EurekaUtil += o.EurekaUtil
}

func (b *Baseline) average(reps int) {
	f := 1.0 / float64(reps)
	b.IntrepidWait *= f
	b.EurekaWait *= f
	b.IntrepidSlowdown *= f
	b.EurekaSlowdown *= f
	b.IntrepidUtil *= f
	b.EurekaUtil *= f
}

// Outcome is a two-domain run in the columns the ablation and §III tables
// share, averaged over Reps runs.
type Outcome struct {
	IntrepidWait, EurekaWait float64 // minutes, all jobs
	IntrepidUtil, EurekaUtil float64
	PairSync                 float64 // minutes, paired jobs of both domains averaged
	LossNH                   float64 // node-hours lost to holds, both domains summed
	Stuck                    int
	CoStartViol              int
}

// newOutcome folds one run's per-domain reports into a single-repetition
// Outcome. It takes the fields of a result rather than a *coupled.Result
// because the metascheduler and co-reservation simulators report the same
// way through their own result types.
func newOutcome(reports map[string]metrics.DomainReport, stuck, viol int) Outcome {
	ri, re := reports[DomIntrepid], reports[DomEureka]
	return Outcome{
		IntrepidWait: ri.Wait.Mean,
		EurekaWait:   re.Wait.Mean,
		IntrepidUtil: ri.Utilization,
		EurekaUtil:   re.Utilization,
		PairSync:     (ri.PairedSync.Mean + re.PairedSync.Mean) / 2,
		LossNH:       ri.LostNodeHours + re.LostNodeHours,
		Stuck:        stuck,
		CoStartViol:  viol,
	}
}

// add accumulates another repetition's outcome into o.
func (o *Outcome) add(r *Outcome) {
	o.IntrepidWait += r.IntrepidWait
	o.EurekaWait += r.EurekaWait
	o.IntrepidUtil += r.IntrepidUtil
	o.EurekaUtil += r.EurekaUtil
	o.PairSync += r.PairSync
	o.LossNH += r.LossNH
	o.Stuck += r.Stuck
	o.CoStartViol += r.CoStartViol
}

func (o *Outcome) average(reps int) {
	f := 1.0 / float64(reps)
	o.IntrepidWait *= f
	o.EurekaWait *= f
	o.IntrepidUtil *= f
	o.EurekaUtil *= f
	o.PairSync *= f
	o.LossNH *= f
}

// fmtMin renders minutes with one decimal for the tables.
func fmtMin(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtSd renders slowdowns.
func fmtSd(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtErr renders a ± standard-error column ("-" with fewer than two reps).
func fmtErr(samples []float64) string {
	if len(samples) < 2 {
		return "-"
	}
	return fmt.Sprintf("±%.1f", metrics.Stderr(samples))
}
