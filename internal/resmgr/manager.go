// Package resmgr implements a Cobalt-style batch resource manager for one
// scheduling domain: a job queue ordered by a pluggable policy, EASY
// backfilling, and the coscheduling extension of Tang et al. (ICPP 2011) —
// Algorithm 1's Run_Job, the hold/yield schemes, the periodic-release
// deadlock breaker, and the held-fraction / max-yield / priority-boost
// enhancements.
//
// A Manager is driven entirely by a sim.Engine; the live daemon wraps the
// same Manager in a real-time driver. Managers in different domains talk to
// each other only through the cosched.Peer interface, so a direct in-process
// peer and the wire protocol are interchangeable.
package resmgr

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"cosched/internal/backfill"
	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/policy"
	"cosched/internal/predict"
	"cosched/internal/sim"
)

// Errors returned by Manager operations.
var (
	ErrUnknownJob   = errors.New("resmgr: unknown job")
	ErrDuplicateJob = errors.New("resmgr: duplicate job id")
	ErrBadState     = errors.New("resmgr: job in wrong state")
	ErrNoPeer       = errors.New("resmgr: no peer for domain")
)

// Observer receives job lifecycle notifications; all methods are optional
// via the Null implementation. Used by tests, the metrics layer, and the
// live daemon's log.
type Observer interface {
	JobSubmitted(now sim.Time, j *job.Job)
	JobStarted(now sim.Time, j *job.Job)
	JobCompleted(now sim.Time, j *job.Job)
	JobHeld(now sim.Time, j *job.Job)
	JobYielded(now sim.Time, j *job.Job)
	JobReleased(now sim.Time, j *job.Job, requeued bool)
	JobCancelled(now sim.Time, j *job.Job)
}

// ExpectObserver is an optional Observer extension notified when a job is
// pre-registered with Expect. A crash-safe daemon must journal expectations:
// a recovered manager that forgot an expected job would treat the mate's
// queries as "unknown job" and break the pair's co-start guarantee.
// Discovered by type assertion; plain Observers are unaffected.
type ExpectObserver interface {
	JobExpected(now sim.Time, j *job.Job)
}

// PeerDecisionObserver is an optional Observer extension recording the
// outcome of inbound peer start requests (TryStartMate/StartMate). The
// journal keeps these as audit records: replay does not need them (the
// resulting start/hold transitions are journaled separately), but a
// post-mortem of a recovery needs to know which starts were remotely
// initiated. Discovered by type assertion.
type PeerDecisionObserver interface {
	PeerDecision(now sim.Time, method string, id job.ID, ok bool)
}

// NullObserver ignores every notification.
type NullObserver struct{}

// JobSubmitted implements Observer.
func (NullObserver) JobSubmitted(sim.Time, *job.Job) {}

// JobStarted implements Observer.
func (NullObserver) JobStarted(sim.Time, *job.Job) {}

// JobCompleted implements Observer.
func (NullObserver) JobCompleted(sim.Time, *job.Job) {}

// JobHeld implements Observer.
func (NullObserver) JobHeld(sim.Time, *job.Job) {}

// JobYielded implements Observer.
func (NullObserver) JobYielded(sim.Time, *job.Job) {}

// JobReleased implements Observer.
func (NullObserver) JobReleased(sim.Time, *job.Job, bool) {}

// JobCancelled implements Observer.
func (NullObserver) JobCancelled(sim.Time, *job.Job) {}

// schedRec is the scheduler's state for one job that is queued, holding or
// running here. A record is acquired when the job enters the queue (or is
// restored into a hold or a run) and returned when the job reaches a
// terminal state; j.Sched is its index in Manager.recs, so every event the
// manager scheduled itself reaches its job's state without hashing an ID.
// Both cores use the same record.
type schedRec struct {
	j     *job.Job
	alloc *cluster.Allocation // the hold or run grant; nil while queued
	end   sim.EventRef        // completion event while running
	// endBy is the release bound the planners were told for a running job;
	// it doubles as the key for removing the job's entry from the
	// maintained sorted timeline.
	endBy   sim.Time
	yieldAt sim.Time // instant of the job's latest yield, noYield before the first
	// pos is the record's index in the dense set its job is in: m.queue
	// (position-indexed mode only), m.holding or m.running.
	pos     int32
	slot    int32 // own index in Manager.recs
	demoted bool  // ranked last for the current iteration
}

// noYield is schedRec.yieldAt and Manager.lastYield before any yield; no
// simulated instant equals it.
const noYield sim.Time = -1

// IterOutcome classifies one scheduling iteration by the weightiest thing
// it did, in ascending order of weight, so the counts sum to Iterations().
type IterOutcome int

const (
	// IterElided: no queued job's charge fit the free nodes, so ordering
	// and planning were skipped (incremental core only).
	IterElided         IterOutcome = iota
	IterPlannedNothing             // planned; nothing started, held or yielded
	IterYielded                    // at least one job yielded, none held or started
	IterHeld                       // at least one job entered a hold, none started
	IterStarted                    // at least one job started
	NumIterOutcomes
)

// String returns the outcome's table label.
func (o IterOutcome) String() string {
	return [...]string{"elided", "planned-nothing", "yielded", "held", "started"}[o]
}

// BackfillMode selects the planner strategy.
type BackfillMode int

const (
	// BackfillNone starts jobs strictly in priority order.
	BackfillNone BackfillMode = iota
	// BackfillEASY protects only the highest-priority blocked job
	// (aggressive backfilling — the paper's production setting).
	BackfillEASY
	// BackfillConservative reserves a slot for every blocked job.
	BackfillConservative
)

// String returns the mode's configuration name.
func (m BackfillMode) String() string {
	switch m {
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return "none"
	}
}

// ParseBackfillMode resolves "", "none", "easy", "conservative".
func ParseBackfillMode(s string) (BackfillMode, bool) {
	switch s {
	case "none":
		return BackfillNone, true
	case "", "easy":
		return BackfillEASY, true
	case "conservative":
		return BackfillConservative, true
	default:
		return BackfillNone, false
	}
}

// Options configures a Manager.
type Options struct {
	Name        string            // domain name, e.g. "intrepid"
	Pool        *cluster.Pool     // node pool (required)
	Policy      policy.Policy     // queue order; nil = WFP
	Backfilling bool              // enable backfill (EASY unless Mode set)
	Mode        BackfillMode      // planner strategy when Backfilling is set
	Estimator   predict.Estimator // backfill planning runtimes; nil = walltime
	Cosched     cosched.Config    // coscheduling configuration
	Observer    Observer          // nil = NullObserver
	Core        Core              // scheduling core; zero value = incremental
}

// Manager is the resource manager for one domain. Not safe for concurrent
// use; the engine's single-threaded event loop serializes everything.
type Manager struct {
	name string
	eng  *sim.Engine
	pool *cluster.Pool
	pol  policy.Policy
	bf   BackfillMode
	est  predict.Estimator
	cfg  cosched.Config
	obs  Observer

	peers map[string]cosched.Peer

	// jobs is the manager's only map, consulted only where an ID arrives
	// from outside: peer calls, admin Submit/Cancel, Expect and Restore.
	jobs map[job.ID]*job.Job
	// all mirrors jobs in insertion order. Jobs() iterates it instead of
	// the map so downstream consumers (metrics, audits) see a deterministic
	// order without sorting; nothing is ever removed from the registry, so
	// the two stay in lockstep.
	all   []*job.Job
	queue []*job.Job

	// recs is the record table job.Sched indexes (slot 0 stays nil: a job
	// with Sched 0 has no record); freeRecs are the idle records, recycled
	// so steady-state submit/start/complete churn allocates nothing (the
	// pool recycles the Allocation structs the same way). running and
	// holding are the dense, unordered sets of those records.
	recs     []*schedRec
	freeRecs []*schedRec
	running  []*schedRec
	holding  []*schedRec
	dueBuf   []*schedRec // releaseScanFire's ID-ordered copy of holding

	demoting  bool     // some records have demoted set (the release scan's iteration)
	lastYield sim.Time // latest instant any job yielded; noYield before the first

	// releaseScan is the single armed timer implementing the periodic
	// hold-release enhancement; it fires when the longest-held job
	// reaches the release interval and is retargeted as holds come and
	// go. One scan (and one scheduling iteration) replaces what would
	// otherwise be a timer per holding job.
	releaseScan sim.EventRef

	iterPending bool
	completed   int
	cancelled   int
	iterations  uint64
	iterStats   [NumIterOutcomes]uint64
	outcome     IterOutcome // of the iteration in progress, so far

	// holdBudget caps concurrent holds when the daemon degrades to
	// journal-less mode (-1 = no cap); holdsRefused counts the holds the
	// budget downgraded to yields. See SetHoldBudget.
	holdBudget   int
	holdsRefused uint64

	// ord, releasesBuf, eligBuf, and planBuf are reusable per-iteration
	// buffers; Iterate runs on every queue/pool change, so allocating them
	// fresh each time is a measurable share of a simulation's allocation
	// bill. boostFn and estFn pin the bound-method closures once instead
	// of re-creating (and heap-allocating) them every iteration.
	ord         policy.Orderer
	releasesBuf []backfill.Release
	eligBuf     []*job.Job
	planBuf     []backfill.Decision
	boostFn     policy.Boost
	estFn       backfill.EstimateFunc

	// Incremental core state (see Core in incremental.go). The mode flags
	// are fixed at construction: sortedQueue keeps the queue canonically
	// ordered (time-invariant policy, yield-boost off), otherwise each
	// record's pos gives O(1) removal; maintainTL keeps the release
	// timeline sorted across iterations (stable estimator). minCharge is a
	// lower bound on the smallest charge any queued job needs (the zero
	// value is one), equal to it while minExact — the no-fit elision's test.
	core        Core
	sortedQueue bool
	maintainTL  bool
	timeline    []backfill.Release
	minCharge   int
	minExact    bool

	// Prebuilt event handlers. Scheduling with a fresh closure (or method
	// value) heap-allocates the function value per event; building these
	// once in New and passing the varying job through AtArg/AfterArg makes
	// every steady-state event on the job lifecycle path allocation-free.
	iterFn     sim.Handler    // RequestIteration body
	releaseFn  sim.Handler    // releaseScanFire method value, pinned once
	submitFn   sim.ArgHandler // trace-replay submission (arg = *job.Job)
	completeFn sim.ArgHandler // job completion (arg = the job's *schedRec)

	// Chained trace replay (SubmitTrace): the sorted trace, the cursor to
	// the next unsubmitted job, and the pinned chain handler.
	replay    []*job.Job
	replayIdx int
	replayFn  sim.Handler
}

// acquireRec gives j a scheduler record, recycled when one is idle, and
// points j.Sched at it.
//
//simlint:hotpath
func (m *Manager) acquireRec(j *job.Job) *schedRec {
	var rec *schedRec
	if k := len(m.freeRecs); k > 0 {
		rec = m.freeRecs[k-1]
		m.freeRecs[k-1] = nil
		m.freeRecs = m.freeRecs[:k-1]
	} else {
		rec = &schedRec{slot: int32(len(m.recs))}
		m.recs = append(m.recs, rec) //simlint:allow R6 amortized record-table growth, bounded by peak concurrent queued+holding+running jobs
	}
	rec.j, rec.yieldAt = j, noYield
	j.Sched = rec.slot
	return rec
}

// releaseRec returns the record of a job that has left the queue, holding
// and running sets for good. Nothing of the job stays behind in it.
//
//simlint:hotpath
func (m *Manager) releaseRec(rec *schedRec) {
	rec.j.Sched = 0
	*rec = schedRec{slot: rec.slot}
	m.freeRecs = append(m.freeRecs, rec) //simlint:allow R6 amortized free-list growth, bounded by the record table
}

// setAdd appends rec to one of the dense sets (running, holding).
//
//simlint:hotpath
func setAdd(set *[]*schedRec, rec *schedRec) {
	rec.pos = int32(len(*set))
	*set = append(*set, rec) //simlint:allow R6 amortized set growth, bounded by peak concurrent running (or holding) jobs
}

// setDrop swap-removes rec from the dense set it is in.
//
//simlint:hotpath
func setDrop(set *[]*schedRec, rec *schedRec) {
	s := *set
	last := len(s) - 1
	s[rec.pos] = s[last]
	s[rec.pos].pos = rec.pos
	s[last] = nil
	*set = s[:last]
}

// New creates a Manager bound to engine eng.
func New(eng *sim.Engine, opt Options) *Manager {
	if opt.Pool == nil {
		panic("resmgr: Options.Pool is required")
	}
	pol := opt.Policy
	if pol == nil {
		pol = policy.WFP{}
	}
	obs := opt.Observer
	if obs == nil {
		obs = NullObserver{}
	}
	name := opt.Name
	if name == "" {
		name = opt.Pool.Name()
	}
	est := opt.Estimator
	if est == nil {
		est = predict.Walltime{}
	}
	mode := BackfillNone
	if opt.Backfilling {
		mode = BackfillEASY
		if opt.Mode != BackfillNone {
			mode = opt.Mode
		}
	}
	m := &Manager{
		name:       name,
		eng:        eng,
		pool:       opt.Pool,
		pol:        pol,
		bf:         mode,
		est:        est,
		cfg:        opt.Cosched,
		obs:        obs,
		peers:      make(map[string]cosched.Peer),
		jobs:       make(map[job.ID]*job.Job),
		recs:       make([]*schedRec, 1),
		lastYield:  noYield,
		core:       opt.Core,
		holdBudget: -1,
	}
	m.boostFn = m.boost
	m.estFn = m.est.Estimate
	m.iterFn = func(now sim.Time) {
		m.iterPending = false
		m.Iterate(now)
	}
	m.releaseFn = m.releaseScanFire
	m.submitFn = func(_ sim.Time, arg any) {
		j := arg.(*job.Job)
		if j.State == job.Cancelled {
			return // withdrawn before arrival
		}
		// admit resets SubmitTime to now, which equals j.SubmitTime.
		if err := m.admit(j); err != nil {
			panic(fmt.Sprintf("resmgr %s: replay submit job %d: %v", m.name, j.ID, err))
		}
	}
	m.completeFn = func(end sim.Time, arg any) {
		m.completeJob(arg.(*schedRec), end)
	}
	m.replayFn = m.replayStep
	if m.core == CoreIncremental {
		// The queue stays pre-sorted only when the canonical order is a
		// function of queue membership alone: time-invariant scores and no
		// per-yield boosts (demotion iterations fall back to a full sort
		// per iteration instead of disabling the mode). Otherwise each
		// record's queue position gives O(1) removal.
		m.sortedQueue = policy.IsTimeInvariant(pol) && !m.cfg.YieldBoost
		// The timeline caches each running job's endBy at start, so it is
		// maintainable only while the estimator's predictions cannot drift
		// afterwards; unstable estimators rebuild per iteration.
		m.maintainTL = predict.IsStable(est)
	}
	return m
}

// Name returns the domain name.
func (m *Manager) Name() string { return m.name }

// Pool returns the node pool.
func (m *Manager) Pool() *cluster.Pool { return m.pool }

// Config returns the coscheduling configuration.
func (m *Manager) Config() cosched.Config { return m.cfg }

// Engine returns the simulation engine driving this manager.
func (m *Manager) Engine() *sim.Engine { return m.eng }

// Iterations returns how many scheduling iterations have run.
func (m *Manager) Iterations() uint64 { return m.iterations }

// IterationStats returns how many iterations ended in each IterOutcome; the
// counts sum to Iterations().
func (m *Manager) IterationStats() [NumIterOutcomes]uint64 { return m.iterStats }

// Skips returns how many scheduling iterations were elided because no queued
// job's charge fit the free nodes. Elided iterations still count in
// Iterations().
func (m *Manager) Skips() uint64 { return m.iterStats[IterElided] }

// AddPeer registers the peer serving the named remote domain.
func (m *Manager) AddPeer(domain string, p cosched.Peer) { m.peers[domain] = p }

// peerFor returns the peer for a mate reference.
func (m *Manager) peerFor(ref job.MateRef) (cosched.Peer, error) {
	p, ok := m.peers[ref.Domain]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPeer, ref.Domain)
	}
	return p, nil
}

// addJob is the single registration point for the job registry: every path
// that writes m.jobs goes through it so the insertion-ordered mirror stays
// consistent with the map.
func (m *Manager) addJob(j *job.Job) {
	m.jobs[j.ID] = j
	m.all = append(m.all, j)
}

// Expect pre-registers a job that will be submitted later (trace-driven
// operation). Until Submit, peers asking about it see StatusUnsubmitted.
func (m *Manager) Expect(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := m.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if j.State != job.Unsubmitted {
		return fmt.Errorf("%w: job %d is %s, want unsubmitted", ErrBadState, j.ID, j.State)
	}
	m.addJob(j)
	if eo, ok := m.obs.(ExpectObserver); ok {
		eo.JobExpected(m.eng.Now(), j)
	}
	return nil
}

// Submit moves a job into the queue. Jobs not previously registered with
// Expect are registered on the fly. A scheduling iteration is requested.
func (m *Manager) Submit(j *job.Job) error {
	existing, known := m.jobs[j.ID]
	if known && existing != j {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if !known {
		if err := j.Validate(); err != nil {
			return err
		}
		m.addJob(j)
	}
	return m.admit(j)
}

// admit moves a registered job into the queue. Trace replay enters here:
// the jobs it submits are the ones SubmitTrace/SubmitAt registered, so the
// registry has nothing to check.
func (m *Manager) admit(j *job.Job) error {
	if err := j.Advance(job.Queued); err != nil {
		return err
	}
	now := m.eng.Now()
	j.SubmitTime = now
	m.acquireRec(j)
	m.enqueue(j)
	m.obs.JobSubmitted(now, j)
	m.RequestIteration()
	return nil
}

// SubmitAt schedules Submit(j) at the job's SubmitTime on the engine.
// It is the single-job trace-replay entry point; bulk traces should use
// SubmitTrace, which replays through one chained event instead of
// preloading the event heap with one submission per job.
func (m *Manager) SubmitAt(j *job.Job) error {
	if err := m.Expect(j); err != nil {
		return err
	}
	_, err := m.eng.AtArg(j.SubmitTime, sim.PrioritySubmit, m.submitFn, j)
	return err
}

// SubmitTrace registers a whole submit-time-sorted trace and replays it
// through a single chained submission event: only the next arrival is ever
// in the event heap, so the heap's size — and every push/pop's comparison
// depth — tracks the running-job population instead of the full trace
// length. Jobs cancelled before their submit instant are skipped, exactly
// as SubmitAt's replay event would. The relative order of same-instant
// submissions is the trace order, which matches scheduling one SubmitAt
// event per job in trace order (both fire in PrioritySubmit band, in
// sequence order). Call once per manager, before the run starts.
func (m *Manager) SubmitTrace(jobs []*job.Job) error {
	if m.replay != nil {
		return fmt.Errorf("resmgr %s: SubmitTrace called twice", m.name)
	}
	if len(m.jobs) == 0 && len(jobs) > 0 {
		// Presize the registry for the whole trace: incremental map growth
		// during bulk Expect is a measurable slice of short simulations.
		m.jobs = make(map[job.ID]*job.Job, len(jobs))
		m.all = make([]*job.Job, 0, len(jobs))
	}
	for i, j := range jobs {
		if i > 0 && j.SubmitTime < jobs[i-1].SubmitTime {
			return fmt.Errorf("resmgr %s: SubmitTrace: trace not sorted by submit time at index %d", m.name, i)
		}
		if err := m.Expect(j); err != nil {
			return err
		}
	}
	m.replay = jobs
	m.armReplay()
	return nil
}

// armReplay schedules the chained submission event for the next
// unsubmitted trace job, if any.
func (m *Manager) armReplay() {
	if m.replayIdx >= len(m.replay) {
		return
	}
	if _, err := m.eng.At(m.replay[m.replayIdx].SubmitTime, sim.PrioritySubmit, m.replayFn); err != nil {
		panic(fmt.Sprintf("resmgr %s: armReplay: %v", m.name, err))
	}
}

// replayStep submits every trace job due at the current instant, then
// re-arms the chain for the next arrival.
func (m *Manager) replayStep(now sim.Time) {
	for m.replayIdx < len(m.replay) {
		j := m.replay[m.replayIdx]
		if j.SubmitTime != now {
			break
		}
		m.replayIdx++
		if j.State == job.Cancelled {
			continue // withdrawn before arrival; see Cancel
		}
		if err := m.admit(j); err != nil {
			panic(fmt.Sprintf("resmgr %s: replay submit job %d: %v", m.name, j.ID, err))
		}
	}
	m.armReplay()
}

// Job returns the job with the given ID, if known.
func (m *Manager) Job(id job.ID) (*job.Job, bool) {
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all known jobs (any state) in registration order. The order
// is deterministic — metrics accumulate in it — and the slice is freshly
// allocated; the pointed-to jobs are live.
func (m *Manager) Jobs() []*job.Job {
	out := make([]*job.Job, len(m.all))
	copy(out, m.all)
	return out
}

// JobsOrdered returns the internal registration-ordered job slice without
// copying. Callers must not mutate it; it is meant for read-only metric
// sweeps over very large job populations.
func (m *Manager) JobsOrdered() []*job.Job { return m.all }

// CollectReport renders the domain's metrics report over the registry in
// registration order.
func (m *Manager) CollectReport(totalNodes int, span sim.Duration) metrics.DomainReport {
	return metrics.Collect(m.name, m.all, totalNodes, span)
}

// QueueLength returns the number of queued jobs.
func (m *Manager) QueueLength() int { return len(m.queue) }

// RunningCount returns the number of running jobs.
func (m *Manager) RunningCount() int { return len(m.running) }

// HoldingCount returns the number of holding jobs.
func (m *Manager) HoldingCount() int { return len(m.holding) }

// SetHoldBudget caps how many jobs may hold concurrently; a hold that
// would exceed the cap is downgraded to a yield (counted by
// HoldsRefused). Negative removes the cap. The daemon's degradation
// controller sets this when the journal is lost: without durability the
// held-job table cannot survive a crash, so a degraded daemon keeps its
// exposure bounded rather than refusing service outright.
func (m *Manager) SetHoldBudget(n int) { m.holdBudget = n }

// HoldBudget returns the current hold cap (-1 = none).
func (m *Manager) HoldBudget() int { return m.holdBudget }

// HoldsRefused returns how many holds the budget downgraded to yields.
func (m *Manager) HoldsRefused() uint64 { return m.holdsRefused }

// CompletedCount returns the number of completed jobs.
func (m *Manager) CompletedCount() int { return m.completed }

// CancelledCount returns the number of cancelled jobs.
func (m *Manager) CancelledCount() int { return m.cancelled }

// Cancel withdraws a job (the qdel operation): a queued job leaves the
// queue, a holding job releases its nodes, a running job is killed and its
// nodes freed, an expected job will never be submitted. Terminal jobs
// cannot be cancelled.
func (m *Manager) Cancel(id job.ID) error {
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Unsubmitted:
		// The replay submit event (if any) checks the state and skips.
	case job.Queued:
		m.removeFromQueue(j)
		m.releaseRec(m.recs[j.Sched])
	case job.Holding:
		rec := m.recs[j.Sched]
		m.unhold(rec, now)
		m.releaseRec(rec)
		m.scheduleReleaseScan()
	case job.Running:
		rec := m.recs[j.Sched]
		rec.end.Cancel()
		if err := m.pool.Release(now, rec.alloc.ID); err != nil {
			panic(fmt.Sprintf("resmgr %s: cancel run: %v", m.name, err))
		}
		m.runReleaseDrop(rec)
		setDrop(&m.running, rec)
		m.releaseRec(rec)
	default:
		return fmt.Errorf("%w: job %d is %s", ErrBadState, id, j.State)
	}
	if err := j.Advance(job.Cancelled); err != nil {
		panic(fmt.Sprintf("resmgr %s: cancel: %v", m.name, err))
	}
	j.EndTime = now
	m.cancelled++
	m.obs.JobCancelled(now, j)
	m.RequestIteration()
	return nil
}

// RequestIteration schedules a scheduling iteration at the current instant
// (priority PrioritySchedule). Multiple requests at one instant coalesce.
func (m *Manager) RequestIteration() {
	if m.iterPending {
		return
	}
	m.iterPending = true
	m.eng.After(0, sim.PrioritySchedule, m.iterFn)
}

// boost computes the per-job additive priority adjustment: iteration-scoped
// demotion for released holders, escalation boosts for repeat yielders.
func (m *Manager) boost(j *job.Job) float64 {
	if m.recs[j.Sched].demoted {
		return policy.DemotionBoost
	}
	if m.cfg.YieldBoost {
		return policy.YieldBoost(j.YieldCount)
	}
	return 0
}

// Iterate runs one scheduling iteration: order the queue, plan starts with
// (optional) EASY backfill, then push each planned job through Run_Job.
//
// The incremental core first asks whether any queued job's charge fits the
// free nodes. Every entry of every planner's plan charges at least its job's
// charge against the nodes free at this instant, so when none fits the plan
// is empty and ordering and planning are elided outright (the iteration still
// counts in Iterations()). Completions free their nodes before the
// same-instant iteration fires (PriorityEnd < PrioritySchedule), so the test
// is exact, not heuristic. Past it, under the none and EASY planners, the core
// orders only what a plan can contain: the eligible jobs whose charge fits and
// the first that does not (see policy.Orderer.OrderFitting). The reference
// core orders the whole queue and plans on every iteration.
func (m *Manager) Iterate(now sim.Time) {
	m.iterations++
	if m.core == CoreIncremental && !m.anyQueuedFits() {
		m.iterStats[IterElided]++
		return
	}

	// A job that yielded at this instant gave up its slot for the rest of
	// the instant: excluding it from the plan lets other jobs use the
	// nodes it declined (the "additional scheduling iteration" yieldJob
	// requests), and prevents a yield livelock within one event time.
	eligible := m.queue
	if m.lastYield == now {
		eligible = m.withoutYielders(now)
	}

	var ordered []*job.Job
	if m.sortedQueue && !m.demoting {
		// The queue storage already holds the canonical order and every
		// boost is zero (time-invariant policy, yield-boost off, no
		// demotions), so Orderer.Order would return this exact
		// permutation — skip the score-and-sort entirely.
		ordered = eligible
	} else {
		boost := m.boostFn
		if !m.demoting && !m.cfg.YieldBoost {
			boost = nil // every boost is zero: spare the call per queued job
		}
		// Conservative backfilling reserves for every blocked job and the
		// reference core is the oracle: both order the whole queue (nil).
		var charge backfill.ChargeFunc
		if m.core == CoreIncremental && m.bf != BackfillConservative {
			charge = m.pool.ChargeFor
		}
		ordered = m.ord.OrderFitting(m.pol, eligible, now, boost, charge, m.pool.Free())
	}
	if len(ordered) == 0 {
		// Nothing eligible fits (anyQueuedFits counts yielders): an empty plan.
		m.iterStats[IterPlannedNothing]++
		return
	}

	releases := m.planReleases(now)

	var plan []backfill.Decision
	if m.bf == BackfillConservative {
		plan = backfill.PlanConservativeInto(m.planBuf, ordered, m.pool.Total(), m.pool.Free(),
			m.pool.ChargeFor, releases, now, m.estFn)
	} else {
		plan = backfill.PlanInto(m.planBuf, ordered, m.pool.Free(), m.pool.ChargeFor,
			releases, now, m.bf == BackfillEASY, m.estFn)
	}
	m.planBuf = plan[:0]

	m.outcome = IterPlannedNothing
	for _, d := range plan {
		j := d.Job
		if j.State != job.Queued {
			continue // started/held meanwhile (e.g. via TryStartMate)
		}
		if !m.pool.CanAllocate(j.Nodes) {
			continue // nodes consumed by an earlier hold in this plan
		}
		m.RunJob(j, now, d.HoldSafe)
	}
	m.iterStats[m.outcome]++
}

// withoutYielders returns the queue minus the jobs that yielded at now, in
// queue order, built in eligBuf. Iterate calls it only when some job
// yielded at now, so an instant without yields costs one comparison.
func (m *Manager) withoutYielders(now sim.Time) []*job.Job {
	buf := m.eligBuf[:0]
	for _, j := range m.queue {
		if m.recs[j.Sched].yieldAt != now {
			buf = append(buf, j)
		}
	}
	m.eligBuf = buf
	return buf
}

// RunJob is Algorithm 1: start, hold, or yield a scheduled job j that the
// planner selected to run now with sufficient free nodes. holdSafe reports
// whether the job may occupy its nodes indefinitely without trampling the
// backfill reservation of a blocked higher-priority job; a job admitted
// only for its bounded walltime must yield rather than hold, since a hold
// is an unbounded occupation the EASY guarantee cannot absorb.
func (m *Manager) RunJob(j *job.Job, now sim.Time, holdSafe bool) {
	j.MarkReady(now)

	// Lines 34–36: coscheduling disabled → start normally.
	if !m.cfg.Enabled || !j.Paired() {
		m.startJobAt(j, now, now)
		return
	}

	// Probe every mate (one for the paper's pairs; several for the N-way
	// extension) — known, status and can-start come from one exchange per
	// mate — and partition them by what must happen for a simultaneous
	// start. Fault tolerance: a mate whose peer is unconfigured or fails,
	// that the peer does not know (lines 25–26 / 30–31), or that is already
	// past coordination (running after a fault-tolerance fallback start,
	// completed, cancelled) imposes no constraint.
	type mateInfo struct {
		peer cosched.Peer
		ref  job.MateRef
	}
	// Coordination sets are tiny (one mate for the paper's pairs, a
	// handful for N-way groups); stack-backed storage keeps this hot path
	// off the heap, falling back to append growth only past 4 mates.
	var releaseArr, tryArr [4]mateInfo
	toRelease := releaseArr[:0] // holding: release into run once we start
	toTry := tryArr[:0]         // queuing/unsubmitted: need TryStartMate
	// An N-way group never starts partially: every mate that needs a
	// TryStartMate must have probed as startable before any is issued.
	// (For 2-way this is one probe + one try, matching the paper's
	// tryStartMate exchange.)
	allStartable := true
	for _, ref := range j.Mates {
		p, err := m.peerFor(ref)
		if err != nil {
			continue
		}
		probe, err := cosched.ProbeMate(p, ref.Job)
		if err != nil || !probe.Known {
			continue
		}
		switch probe.Status {
		case cosched.StatusHolding:
			toRelease = append(toRelease, mateInfo{p, ref})
		case cosched.StatusQueuing, cosched.StatusUnsubmitted:
			toTry = append(toTry, mateInfo{p, ref})
			allStartable = allStartable && probe.CanStart
		}
	}
	if len(toRelease)+len(toTry) == 0 {
		m.startJobAt(j, now, now)
		return
	}

	if allStartable {
		// The resolver proposes now as the group's co-start instant; every
		// callee records it verbatim (see cosched.CoStarter), so the whole
		// group shares one start time even across live wall clocks.
		started := true
		for _, mi := range toTry {
			ok, err := tryStartMateAt(mi.peer, mi.ref.Job, now)
			if err != nil || !ok {
				started = false
				break
			}
		}
		if started {
			// Line 14 + lines 7–8: start self, then release holders.
			m.startJobAt(j, now, now)
			for _, mi := range toRelease {
				if err := startMateAt(mi.peer, mi.ref.Job, now); err != nil {
					// Peer failure after our start: nothing to undo —
					// the mate's own fault tolerance applies.
					continue
				}
			}
			return
		}
	}

	// Lines 16–23: mate cannot run now → hold or yield per local scheme.
	m.holdOrYield(j, now, holdSafe)
}

// holdOrYield applies the locally configured scheme with the §IV-E2
// threshold adjustments and the reservation-safety constraint.
func (m *Manager) holdOrYield(j *job.Job, now sim.Time, holdSafe bool) {
	scheme := m.cfg.Scheme

	// A hold that would delay a blocked higher-priority job's backfill
	// reservation is downgraded to a yield regardless of configuration.
	if !holdSafe {
		scheme = cosched.Yield
	}

	// Max-yield escalation: a job that yielded too often may hold.
	if scheme == cosched.Yield && m.cfg.MaxYields > 0 && j.YieldCount >= m.cfg.MaxYields {
		scheme = cosched.Hold
	}
	// Held-fraction cap: a hold that would exceed the cap yields instead.
	if scheme == cosched.Hold {
		maxFrac := m.cfg.EffectiveMaxHeldFraction()
		charge := m.pool.ChargeFor(j.Nodes)
		frac := float64(m.pool.Held()+charge) / float64(m.pool.Total())
		if frac > maxFrac {
			scheme = cosched.Yield
		}
	}
	// Degraded-mode hold budget: a journal-less daemon refuses holds
	// beyond the ceiling — holds are exactly the state that cannot be
	// rebuilt after a crash without a journal, so the budget bounds the
	// blast radius while durability is gone. Refused holds yield.
	if scheme == cosched.Hold && m.holdBudget >= 0 && len(m.holding) >= m.holdBudget {
		m.holdsRefused++
		scheme = cosched.Yield
	}

	if scheme == cosched.Hold {
		m.holdJob(j, now)
	} else {
		m.yieldJob(j, now)
	}
}

// startJobAt transitions a queued job to Running on freshly allocated nodes
// (the planner guaranteed the allocation fits), schedules its completion and
// records `at` as the job's start instant. at == now everywhere except when
// a remote resolver proposed the co-start instant over the wire
// (cosched.CoStarter) or a reconciliation adopts a surviving mate's
// historical start; the completion is always scheduled from the local clock,
// so adopted instants never rewind the engine.
//
//simlint:hotpath
func (m *Manager) startJobAt(j *job.Job, at, now sim.Time) {
	alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocRun)
	if err != nil {
		// Plan raced with a TryStartMate that consumed nodes; leave the
		// job queued for the next iteration.
		return
	}
	if err := j.Advance(job.Running); err != nil {
		_ = m.pool.Release(now, alloc.ID)
		panic(fmt.Sprintf("resmgr %s: startJob: %v", m.name, err))
	}
	j.StartTime = at
	m.removeFromQueue(j)
	rec := m.recs[j.Sched]
	rec.alloc = alloc
	m.runReleaseAdd(rec)
	setAdd(&m.running, rec)
	rec.end = m.eng.AfterArg(j.Runtime, sim.PriorityEnd, m.completeFn, rec)
	m.outcome = IterStarted
	m.obs.JobStarted(at, j)
}

// startHeldJobAt converts a Holding job's allocation to Run and schedules
// completion — the "its mate got ready, start now" path — recording `at` as
// the start instant (see startJobAt). Held-node-seconds accrue to the local
// clock: the hold really did occupy nodes until now, whatever instant the
// pair agrees to record.
func (m *Manager) startHeldJobAt(j *job.Job, at, now sim.Time) error {
	if j.State != job.Holding {
		return fmt.Errorf("%w: job %d not holding", ErrBadState, j.ID)
	}
	rec := m.recs[j.Sched]
	if _, err := m.pool.Convert(now, rec.alloc.ID, cluster.AllocRun); err != nil {
		return err
	}
	setDrop(&m.holding, rec)
	m.scheduleReleaseScan()
	j.HeldNodeSeconds += int64(rec.alloc.Allocated) * (now - j.HoldStart)
	if err := j.Advance(job.Running); err != nil {
		panic(fmt.Sprintf("resmgr %s: startHeldJob: %v", m.name, err))
	}
	j.StartTime = at
	m.runReleaseAdd(rec)
	setAdd(&m.running, rec)
	rec.end = m.eng.AfterArg(j.Runtime, sim.PriorityEnd, m.completeFn, rec)
	m.obs.JobStarted(at, j)
	return nil
}

// holdJob implements self.holdJob(j, N): allocate the nodes as held and
// arm the periodic release timer.
func (m *Manager) holdJob(j *job.Job, now sim.Time) {
	alloc, err := m.pool.Allocate(now, j.Nodes, cluster.AllocHold)
	if err != nil {
		return // lost the nodes inside this iteration; stay queued
	}
	if err := j.Advance(job.Holding); err != nil {
		_ = m.pool.Release(now, alloc.ID)
		panic(fmt.Sprintf("resmgr %s: holdJob: %v", m.name, err))
	}
	j.HoldStart = now
	j.HoldCount++
	m.removeFromQueue(j)
	rec := m.recs[j.Sched]
	rec.alloc = alloc
	setAdd(&m.holding, rec)
	m.outcome = max(m.outcome, IterHeld)
	m.obs.JobHeld(now, j)
	m.scheduleReleaseScan()
}

// yieldJob implements self.yieldJob(j): the job stays queued, its yield is
// recorded, and another scheduling iteration is requested so other jobs can
// use the nodes it declined.
func (m *Manager) yieldJob(j *job.Job, now sim.Time) {
	j.YieldCount++
	m.recs[j.Sched].yieldAt = now
	m.lastYield = now
	m.outcome = max(m.outcome, IterYielded)
	m.obs.JobYielded(now, j)
	m.RequestIteration()
}

// unhold ends rec's job's hold: held time accrued to now, nodes back in the
// pool, record out of the holding set. The caller moves the job on.
func (m *Manager) unhold(rec *schedRec, now sim.Time) {
	j := rec.j
	j.HeldNodeSeconds += int64(rec.alloc.Allocated) * (now - j.HoldStart)
	if err := m.pool.Release(now, rec.alloc.ID); err != nil {
		panic(fmt.Sprintf("resmgr %s: release hold of job %d: %v", m.name, j.ID, err))
	}
	setDrop(&m.holding, rec)
	rec.alloc = nil
}

// requeueHeld returns a holding job to the queue, its nodes to the pool.
func (m *Manager) requeueHeld(rec *schedRec, now sim.Time) {
	m.unhold(rec, now)
	if err := rec.j.Advance(job.Queued); err != nil {
		panic(fmt.Sprintf("resmgr %s: requeue held job %d: %v", m.name, rec.j.ID, err))
	}
	m.enqueue(rec.j)
}

// scheduleReleaseScan (re)arms the release timer at the earliest instant a
// holding job reaches the release interval. With no holds (or the
// enhancement disabled) no timer is armed, so the event queue can drain.
func (m *Manager) scheduleReleaseScan() {
	if m.cfg.ReleaseInterval <= 0 {
		return
	}
	if m.releaseScan.Pending() {
		return // a scan is already armed; it re-arms itself while holds exist
	}
	due := sim.Time(math.MaxInt64)
	for _, rec := range m.holding {
		if t := rec.j.HoldStart + m.cfg.ReleaseInterval; t < due {
			due = t
		}
	}
	if due == math.MaxInt64 {
		return // nothing holding: let the event queue drain
	}
	if now := m.eng.Now(); due < now {
		due = now
	}
	ref, err := m.eng.At(due, sim.PriorityRelease, m.releaseFn)
	if err != nil {
		panic(fmt.Sprintf("resmgr %s: scheduleReleaseScan: %v", m.name, err))
	}
	m.releaseScan = ref
}

// releaseScanFire is the deadlock-breaking enhancement (§IV-E1): at every
// release boundary all holding jobs temporarily release their nodes and
// are ranked last for one scheduling iteration, so the machine's entire
// held capacity is offered to waiting jobs at a single instant (a
// staggered per-job release can never accumulate enough nodes for a
// blocked full-machine job, leaving a cross-machine circular wait the
// enhancement exists to break). Holders whose nodes nobody takes re-hold
// within the same iteration; the rest stay queued.
func (m *Manager) releaseScanFire(now sim.Time) {
	// The iteration below may hold again, so release from a copy, in
	// ascending job-ID order: the order is visible in event logs.
	due := append(m.dueBuf[:0], m.holding...)
	slices.SortFunc(due, func(a, b *schedRec) int { return cmp.Compare(a.j.ID, b.j.ID) })
	for _, rec := range due {
		m.requeueHeld(rec, now)
		rec.demoted = true
		m.obs.JobReleased(now, rec.j, true)
	}
	if len(due) > 0 {
		// One iteration with every released holder demoted to the back;
		// the demotion window is exactly this iteration. (Nothing completes
		// inside an iteration, so every record is still its job's.)
		m.demoting = true
		m.Iterate(now)
		m.demoting = false
		for _, rec := range due {
			rec.demoted = false
		}
	}
	clear(due)
	m.dueBuf = due
	m.scheduleReleaseScan()
}

// completeJob finishes a running job, frees its nodes, and triggers a new
// scheduling iteration.
//
//simlint:hotpath
func (m *Manager) completeJob(rec *schedRec, now sim.Time) {
	j := rec.j
	if err := m.pool.Release(now, rec.alloc.ID); err != nil {
		panic(fmt.Sprintf("resmgr %s: completeJob: %v", m.name, err))
	}
	m.runReleaseDrop(rec)
	setDrop(&m.running, rec)
	m.releaseRec(rec)
	if err := j.Advance(job.Completed); err != nil {
		panic(fmt.Sprintf("resmgr %s: completeJob: %v", m.name, err))
	}
	j.EndTime = now
	m.est.Observe(j)
	if uo, ok := m.pol.(policy.UsageObserver); ok {
		uo.ObserveCompletion(j, now)
	}
	m.completed++
	m.obs.JobCompleted(now, j)
	m.RequestIteration()
}

// ---------------------------------------------------------------------------
// cosched.Peer implementation: a Manager can serve directly as the peer of
// another in-process Manager, which is how the coupled simulator wires
// domains by default. The proto package exposes exactly these methods over
// a connection.

var (
	_ cosched.Peer       = (*Manager)(nil)
	_ cosched.CoStarter  = (*Manager)(nil)
	_ cosched.Prober     = (*Manager)(nil)
	_ cosched.Reconciler = (*Manager)(nil)
)

// tryStartMateAt routes through the CoStarter extension when the peer has
// it, falling back to the plain protocol otherwise.
func tryStartMateAt(p cosched.Peer, id job.ID, at sim.Time) (bool, error) {
	if cs, ok := p.(cosched.CoStarter); ok {
		return cs.TryStartMateAt(id, at)
	}
	return p.TryStartMate(id)
}

// startMateAt routes through the CoStarter extension when the peer has it.
func startMateAt(p cosched.Peer, id job.ID, at sim.Time) error {
	if cs, ok := p.(cosched.CoStarter); ok {
		return cs.StartMateAt(id, at)
	}
	return p.StartMate(id)
}

// notePeerDecision forwards an inbound peer start decision to the optional
// audit observer (the journal, in live mode).
func (m *Manager) notePeerDecision(now sim.Time, method string, id job.ID, ok bool) {
	if po, isPO := m.obs.(PeerDecisionObserver); isPO {
		po.PeerDecision(now, method, id, ok)
	}
}

// PeerName implements cosched.Peer.
func (m *Manager) PeerName() string { return m.name }

// GetMateJob implements cosched.Peer: true if the job is registered here in
// any state.
func (m *Manager) GetMateJob(id job.ID) (bool, error) {
	_, ok := m.jobs[id]
	return ok, nil
}

// GetMateStatus implements cosched.Peer.
func (m *Manager) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	j, ok := m.jobs[id]
	if !ok {
		return cosched.StatusUnknown, nil
	}
	return cosched.FromJobState(j.State), nil
}

// CanStartMate implements cosched.Peer: reports whether TryStartMate would
// succeed right now, without side effects.
func (m *Manager) CanStartMate(id job.ID) (bool, error) {
	j, ok := m.jobs[id]
	return ok && m.canStart(j), nil
}

// canStart is CanStartMate's answer for a registered job.
func (m *Manager) canStart(j *job.Job) bool {
	switch j.State {
	case job.Queued:
		return m.pool.CanAllocate(j.Nodes)
	case job.Holding, job.Running:
		return true
	default:
		return false
	}
}

// ProbeMate implements cosched.Prober: the three queries above from one
// lookup.
func (m *Manager) ProbeMate(id job.ID) (cosched.MateProbe, error) {
	j, ok := m.jobs[id]
	if !ok {
		return cosched.MateProbe{}, nil
	}
	return cosched.MateProbe{Known: true, Status: cosched.FromJobState(j.State), CanStart: m.canStart(j)}, nil
}

// TryStartMate implements cosched.Peer: the "additional scheduling
// iteration" of Algorithm 1 line 12, scoped to the mate job. The mate is
// started directly, bypassing its own coscheduling logic — the coordination
// already happened on the caller's side.
func (m *Manager) TryStartMate(id job.ID) (bool, error) {
	return m.TryStartMateAt(id, m.eng.Now())
}

// TryStartMateAt implements cosched.CoStarter: TryStartMate recording the
// caller's proposed co-start instant as the mate's StartTime.
func (m *Manager) TryStartMateAt(id job.ID, at sim.Time) (bool, error) {
	j, ok := m.jobs[id]
	if !ok {
		m.notePeerDecision(m.eng.Now(), "try_start_mate", id, false)
		return false, nil
	}
	now := m.eng.Now()
	started := false
	switch j.State {
	case job.Queued:
		if m.pool.CanAllocate(j.Nodes) {
			j.MarkReady(now)
			m.startJobAt(j, at, now)
			started = j.State == job.Running
		}
	case job.Holding:
		if err := m.startHeldJobAt(j, at, now); err != nil {
			m.notePeerDecision(now, "try_start_mate", id, false)
			return false, err
		}
		started = true
	case job.Running:
		started = true
	}
	m.notePeerDecision(now, "try_start_mate", id, started)
	return started, nil
}

// StartMate implements cosched.Peer: release a holding mate into execution
// (Algorithm 1 line 8). Starting an already-running mate is a no-op.
func (m *Manager) StartMate(id job.ID) error {
	return m.StartMateAt(id, m.eng.Now())
}

// StartMateAt implements cosched.CoStarter: StartMate recording the
// caller's proposed co-start instant as the mate's StartTime.
func (m *Manager) StartMateAt(id job.ID, at sim.Time) error {
	j, ok := m.jobs[id]
	if !ok {
		m.notePeerDecision(m.eng.Now(), "start_mate", id, false)
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	now := m.eng.Now()
	switch j.State {
	case job.Holding:
		err := m.startHeldJobAt(j, at, now)
		m.notePeerDecision(now, "start_mate", id, err == nil)
		return err
	case job.Running:
		m.notePeerDecision(now, "start_mate", id, true)
		return nil
	default:
		m.notePeerDecision(now, "start_mate", id, false)
		return fmt.Errorf("%w: job %d is %s, want holding", ErrBadState, id, j.State)
	}
}
