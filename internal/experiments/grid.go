package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cosched/internal/arena"
	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/parallel"
	"cosched/internal/resmgr"
	"cosched/internal/workload"
)

// Every experiment in this package is one design (§V): a grid of groups ×
// cells. A group is one workload, generated once from the group's own seed;
// a cell is one simulation of it — the no-coscheduling baseline, a scheme
// combination, a knob variant, a compared system. runGrid is the only loop
// that walks such a grid; what differs between experiments is the grid's
// size, the trace builder and the cell body.

// runGrid builds every group's workload with build, then runs cell for
// every (group, cell) coordinate on its group's workload. Both phases fan
// out over cfg.Parallelism workers and land strictly by index — result
// g*cells+c belongs to cell c of group g — so the returned slice, and any
// fold over it in index order, is the same at every worker count.
func runGrid[W, R any](cfg Config, groups, cells int,
	build func(g int) (W, error), cell func(g, c int, w W) (R, error)) ([]R, error) {
	ws, err := parallel.Map(context.Background(), cfg.workers(), groups, build)
	if err != nil {
		return nil, err
	}
	return parallel.Map(context.Background(), cfg.workers(), groups*cells, func(i int) (R, error) {
		return cell(i/cells, i%cells, ws[i/cells])
	})
}

// tracePair is the frozen workload of one two-domain group: both traces
// generated, utilization-scaled and paired exactly once, then captured as
// immutable snapshots that every cell of the group materializes private
// jobs from (copy-on-write, see workload.Snapshot) instead of regenerating
// identical traces per cell.
type tracePair struct {
	intr, eur *workload.Snapshot
}

// freezePair captures a trace builder's results; it takes them as they are
// returned, so a group's build is freezePair(someTraces(cfg, seed, …)).
func freezePair(intr, eur []*job.Job, err error) (*tracePair, error) {
	if err != nil {
		return nil, err
	}
	return &tracePair{intr: workload.Capture(intr), eur: workload.Capture(eur)}, nil
}

// cellBuffers is recycled per-cell materialization storage: one job arena
// plus the two trace pointer slices. Workers borrow a set from the pool,
// run the cell, and return it, so a long sweep reuses a handful of arenas
// instead of allocating every job of every cell. Reuse cannot affect
// results: materialization fully initializes every field it hands out.
type cellBuffers struct {
	jobs      arena.Arena[job.Job]
	intr, eur []*job.Job
}

var cellBufPool = sync.Pool{New: func() any { return new(cellBuffers) }}

// materialize builds private mutable traces for one cell from the shared
// snapshots, recycling b's arena and slices. The returned jobs die with
// the next materialize on the same buffers; return b to the pool only when
// the cell's simulation has fully finished with them.
func (p *tracePair) materialize(b *cellBuffers) (intr, eur []*job.Job) {
	b.jobs.Reset()
	b.intr = p.intr.MaterializeInto(&b.jobs, b.intr)
	b.eur = p.eur.MaterializeInto(&b.jobs, b.eur)
	return b.intr, b.eur
}

// onPair turns a two-domain cell body into a runGrid cell: the body gets
// private traces materialized from its group's frozen pair into pooled
// buffers, which go back to the pool when it returns.
func onPair[R any](body func(g, c int, intr, eur []*job.Job) (R, error)) func(g, c int, p *tracePair) (R, error) {
	return func(g, c int, p *tracePair) (R, error) {
		buf := cellBufPool.Get().(*cellBuffers)
		defer cellBufPool.Put(buf)
		intr, eur := p.materialize(buf)
		return body(g, c, intr, eur)
	}
}

// repMean is a cell result that averages over repetitions.
type repMean[R any] interface {
	*R
	// add accumulates another repetition's result into the receiver.
	add(o *R)
	// average divides the summed rate fields by reps; counts stay sums.
	average(reps int)
}

// meanOverReps folds the results of a grid whose groups are (point, rep)
// coordinates, rep-minor, into one averaged result per (point, cell),
// point-major. Repetitions are added in ascending order starting from rep
// 0's own value and scaled once at the end — the float-operation order of
// the serial loop `for rep { acc += r }; acc *= 1/reps`, so the mean is
// bit-identical however the grid was computed.
func meanOverReps[R any, P repMean[R]](results []R, reps, cells int) []R {
	out := make([]R, 0, len(results)/reps)
	for point := 0; point < len(results); point += reps * cells {
		for c := 0; c < cells; c++ {
			acc := results[point+c]
			for rep := 1; rep < reps; rep++ {
				P(&acc).add(&results[point+rep*cells+c])
			}
			P(&acc).average(reps)
			out = append(out, acc)
		}
	}
	return out
}

// pairSetup is what a two-domain cell varies: each machine's coscheduling
// configuration, and the backfill planner and planning-runtime estimator
// both machines use ("" selects coupled's defaults, EASY and walltime). The
// zero pairSetup is the no-coscheduling baseline.
type pairSetup struct {
	intrepid, eureka cosched.Config
	backfillMode     string
	estimator        string
}

// setup returns the pairSetup of one scheme combination at cfg's release
// interval and held-fraction cap.
func (c Config) setup(combo Combo) pairSetup {
	side := func(s cosched.Scheme) cosched.Config {
		cc := cosched.DefaultConfig(s)
		cc.ReleaseInterval = c.ReleaseInterval
		cc.MaxHeldFraction = c.MaxHeldFraction
		return cc
	}
	return pairSetup{intrepid: side(combo.Intrepid), eureka: side(combo.Eureka)}
}

// pairDomains is the one place the Intrepid/Eureka installation of §V-A is
// spelled out as coupled.DomainConfigs.
func pairDomains(cfg Config, ps pairSetup, intr, eur []*job.Job) []coupled.DomainConfig {
	return []coupled.DomainConfig{
		{Name: DomIntrepid, Nodes: IntrepidNodes, Backfilling: true, BackfillMode: ps.backfillMode,
			Estimator: ps.estimator, Cosched: ps.intrepid, Trace: intr, SchedCore: cfg.SchedCore},
		{Name: DomEureka, Nodes: EurekaNodes, Backfilling: true, BackfillMode: ps.backfillMode,
			Estimator: ps.estimator, Cosched: ps.eureka, Trace: eur, SchedCore: cfg.SchedCore},
	}
}

// simulatePair runs one two-domain cell to completion. With cfg.Audit set,
// any invariant violation fails the cell with an error.
func simulatePair(cfg Config, ps pairSetup, intr, eur []*job.Job) (*coupled.Result, error) {
	domains := pairDomains(cfg, ps, intr, eur)
	var audit *auditHarness
	if cfg.Audit {
		audit = newAuditHarness(domains)
	}
	s, err := coupled.New(coupled.Options{Domains: domains})
	if err != nil {
		return nil, err
	}
	if audit != nil {
		audit.bind(s, domains)
	}
	res := s.Run()
	if audit != nil {
		if err := audit.err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pairOutcome is simulatePair boiled down to an Outcome, the cell body of
// the ablations and of the §III comparison's coupled-simulator systems.
func pairOutcome(cfg Config, ps pairSetup, intr, eur []*job.Job) (Outcome, error) {
	res, err := simulatePair(cfg, ps, intr, eur)
	if err != nil {
		return Outcome{}, err
	}
	return newOutcome(res.Reports, res.StuckJobs, res.CoStartViolations), nil
}

// auditHarness is the per-cell invariant instrumentation built when
// Config.Audit is set: one deferred Auditor per domain (the coupled.Sim
// constructs its managers internally, so observers must exist first) and
// one deadlock Monitor shared by every domain.
type auditHarness struct {
	mon  *invariant.Monitor
	auds []*invariant.Auditor
}

// newAuditHarness wires the harness into the domain configs before
// coupled.New: each domain's observer becomes auditor, then monitor, then
// whatever observer the domain already had.
func newAuditHarness(domains []coupled.DomainConfig) *auditHarness {
	h := &auditHarness{mon: invariant.NewMonitor()}
	for i := range domains {
		aud := invariant.NewDeferred()
		tee := resmgr.Tee{aud, h.mon}
		if inner := domains[i].Observer; inner != nil {
			tee = append(tee, inner)
		}
		domains[i].Observer = tee
		h.auds = append(h.auds, aud)
	}
	return h
}

// bind completes the deferred wiring once the managers exist.
func (h *auditHarness) bind(s *coupled.Sim, domains []coupled.DomainConfig) {
	for i := range domains {
		mgr := s.Manager(domains[i].Name)
		h.auds[i].Bind(mgr)
		h.mon.Register(mgr)
	}
}

// err collapses every recorded violation into one error, nil when clean.
func (h *auditHarness) err() error {
	var all []string
	for _, aud := range h.auds {
		all = append(all, aud.Violations()...)
	}
	all = append(all, h.mon.Violations()...)
	if len(all) == 0 {
		return nil
	}
	return fmt.Errorf("invariant audit: %d violation(s):\n  %s", len(all), strings.Join(all, "\n  "))
}
