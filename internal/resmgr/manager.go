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
// peer and the wire protocol are interchangeable. Run_Job's decision is a
// pure function (decide) between the peer exchanges, and every decision
// site changes job state through one apply step.
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
	ErrTooWide      = errors.New("resmgr: job wider than its pool")
)

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
	// pos is the record's index in the dense set its job is in while it
	// holds or runs: m.holding or m.running (the queue is kept in order,
	// so a queued job's record has no position).
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

// ParseBackfillMode resolves the planner a backfilling domain names: "" or
// "easy", and "conservative". No backfilling is Options.Backfilling unset,
// not a mode.
func ParseBackfillMode(s string) (BackfillMode, bool) {
	switch s {
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

	// jobs finds a job by ID, consulted only where an ID arrives from
	// outside: peer calls, admin Submit/Cancel, Expect and Restore. Dense
	// IDs sit in a slice, the rest in a map (see jobIndex).
	jobs jobIndex
	// all mirrors jobs in insertion order. EachJob walks it so downstream
	// consumers (metrics, audits) see a deterministic order without
	// sorting; nothing is ever removed from the registry, so the two stay
	// in lockstep. After SubmitTrace it is the caller's trace slice
	// itself, its capacity clipped to its length so that a later
	// registration appends to a copy.
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

	// ord, releasesBuf, eligBuf, planBuf and mateBuf are reusable per-iteration
	// buffers; Iterate runs on every queue/pool change, so allocating them
	// fresh each time is a measurable share of a simulation's allocation
	// bill. eligBuf holds the reference core's queue minus its yielders.
	// boostFn, skipFn and estFn pin the bound-method closures once instead
	// of re-creating (and heap-allocating) them every iteration.
	ord         policy.Orderer
	releasesBuf []backfill.Release
	eligBuf     []*job.Job
	planBuf     []backfill.Decision
	mateBuf     []mate
	boostFn     policy.Boost
	skipFn      func(*job.Job) bool
	estFn       backfill.EstimateFunc

	// Incremental core state (see Core in incremental.go). maintainTL,
	// fixed at construction, keeps the release timeline sorted across
	// iterations (stable estimator). minCharge is a lower bound on the
	// smallest charge any queued job needs (the zero value is one), equal to
	// it while minExact — the no-fit elision's test.
	core       Core
	maintainTL bool
	timeline   []backfill.Release
	minCharge  int
	minExact   bool

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
		recs:       make([]*schedRec, 1),
		lastYield:  noYield,
		core:       opt.Core,
		holdBudget: -1,
	}
	m.boostFn = m.boost
	m.skipFn = m.yieldedLast
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

// Iterations returns how many scheduling iterations have run. It repeats
// Counts().Iterations for bench's pipeline, which reads it alone per cell.
func (m *Manager) Iterations() uint64 { return m.iterations }

// IterationStats returns how many iterations ended in each IterOutcome; the
// counts sum to Iterations().
func (m *Manager) IterationStats() [NumIterOutcomes]uint64 { return m.iterStats }

// Skips returns how many scheduling iterations were elided because no queued
// job's charge fit the free nodes. Elided iterations still count in
// Iterations(). Counts has no field for it; bench's pipeline reads it.
func (m *Manager) Skips() uint64 { return m.iterStats[IterElided] }

// AddPeer registers the peer serving the named remote domain.
func (m *Manager) AddPeer(domain string, p cosched.Peer) { m.peers[domain] = p }

// addJob is the single registration point for the job registry: every path
// that writes m.jobs goes through it so the insertion-ordered mirror stays
// consistent with the index. SubmitTrace is the one exception: the trace
// itself becomes the mirror and, when numbered 1..n, the index's dense
// part.
func (m *Manager) addJob(j *job.Job) {
	m.jobs.put(j)
	m.all = append(m.all, j)
}

// fitsPool refuses a job wider than the pool. No release could ever make
// it fit, so it would queue for ever while its mates on other domains held
// or yielded for it; and on a partitioned pool, which clamps every charge
// to its total, the planner would plan it once the pool went idle and
// Iterate would skip it, starting nothing behind it. Every way a job comes
// to wait here — Expect, Submit, SubmitTrace, RestoreJob — passes this test.
func (m *Manager) fitsPool(j *job.Job) error {
	if total := m.pool.Total(); j.Nodes > total {
		return fmt.Errorf("%w: job %d asks for %d nodes; %s has %d", ErrTooWide, j.ID, j.Nodes, m.name, total)
	}
	return nil
}

// expectable is Expect's admission check, which SubmitTrace applies to
// every trace job too: a valid job, no wider than the pool, under an ID not
// yet registered, not yet submitted.
func (m *Manager) expectable(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if err := m.fitsPool(j); err != nil {
		return err
	}
	if _, dup := m.jobs.get(j.ID); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if j.State != job.Unsubmitted {
		return fmt.Errorf("%w: job %d is %s, want unsubmitted", ErrBadState, j.ID, j.State)
	}
	return nil
}

// Expect pre-registers a job that will be submitted later (trace-driven
// operation). Until Submit, peers asking about it see StatusUnsubmitted.
// A job wider than the pool is refused (ErrTooWide).
func (m *Manager) Expect(j *job.Job) error {
	if err := m.expectable(j); err != nil {
		return err
	}
	m.addJob(j)
	m.obs.JobExpected(m.eng.Now(), j)
	return nil
}

// Submit moves a job into the queue. Jobs not previously registered with
// Expect are registered on the fly, and refused as Expect refuses them. A
// scheduling iteration is requested.
func (m *Manager) Submit(j *job.Job) error {
	existing, known := m.jobs.get(j.ID)
	if known && existing != j {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, j.ID)
	}
	if !known {
		if err := j.Validate(); err != nil {
			return err
		}
		if err := m.fitsPool(j); err != nil {
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
// sequence order). Call once per manager, before the run starts and
// before any other job is registered; it refuses a manager that already
// holds jobs.
//
// Every job passes Expect's checks and fires JobExpected, in trace order.
// The manager keeps the jobs slice for its whole life and the caller must
// not change it: the replay reads it, it becomes the registry itself
// (EachJob walks it) and, when the trace numbers its jobs 1..n in order,
// the ID index's dense part too, so such a trace costs no copy of its
// pointers; any other trace's jobs enter the index one by one. A later
// Expect or Submit appends to a copy and leaves the caller's slice as it
// was.
func (m *Manager) SubmitTrace(jobs []*job.Job) error {
	if m.replay != nil {
		return fmt.Errorf("resmgr %s: SubmitTrace called twice", m.name)
	}
	if len(m.all) > 0 {
		return fmt.Errorf("resmgr %s: SubmitTrace on a manager that already holds jobs", m.name)
	}
	numbered := numberedInOrder(jobs)
	now := m.eng.Now()
	for i, j := range jobs {
		if i > 0 && j.SubmitTime < jobs[i-1].SubmitTime {
			return fmt.Errorf("resmgr %s: SubmitTrace: trace not sorted by submit time at index %d", m.name, i)
		}
		if err := m.expectable(j); err != nil {
			return err
		}
		m.all = jobs[: i+1 : i+1]
		if numbered {
			m.jobs.adopt(m.all)
		} else {
			m.jobs.put(j)
		}
		m.obs.JobExpected(now, j)
	}
	m.replay = jobs
	m.armReplay()
	return nil
}

// numberedInOrder reports whether jobs[i] has ID i+1 for every i: the
// numbering workload.Generate gives a trace and snapshots keep.
func numberedInOrder(jobs []*job.Job) bool {
	for i, j := range jobs {
		if j.ID != job.ID(i+1) {
			return false
		}
	}
	return true
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
func (m *Manager) Job(id job.ID) (*job.Job, bool) { return m.jobs.get(id) }

// EachJob calls fn on every registered job (any state) in registration
// order, the order metrics accumulate in, without copying the registry.
// fn must not change the manager.
func (m *Manager) EachJob(fn func(*job.Job)) {
	for _, j := range m.all {
		fn(j)
	}
}

// CollectReport renders the domain's metrics report over the registry in
// registration order.
func (m *Manager) CollectReport(totalNodes int, span sim.Duration) metrics.DomainReport {
	return metrics.Collect(m.name, m.all, totalNodes, span)
}

// EachLive calls fn on every queued, holding and running job, in that
// order of sets and in no documented order within one: O(live jobs),
// however many jobs ever registered. The status page and the deadlock
// monitor read it; no scheduling path does. fn must not change the manager.
func (m *Manager) EachLive(fn func(*job.Job)) {
	for _, j := range m.queue {
		fn(j)
	}
	for _, rec := range m.holding {
		fn(rec.j)
	}
	for _, rec := range m.running {
		fn(rec.j)
	}
}

// SetHoldBudget caps how many jobs may hold concurrently; a hold that
// would exceed the cap is downgraded to a yield (counted by
// Counts().HoldsRefused). Negative removes the cap. The daemon's degradation
// controller sets this when the journal is lost: without durability the
// held-job table cannot survive a crash, so a degraded daemon keeps its
// exposure bounded rather than refusing service outright.
func (m *Manager) SetHoldBudget(n int) { m.holdBudget = n }

// CompletedCount returns the number of completed jobs. It repeats
// Counts().Completed for coupled.Run's done check, run after every engine step.
func (m *Manager) CompletedCount() int { return m.completed }

// CancelledCount returns the number of cancelled jobs. It repeats
// Counts().Cancelled for coupled.Run's done check, run after every engine step.
func (m *Manager) CancelledCount() int { return m.cancelled }

// Counts is one reading of a domain's node and job state. The JSON tags
// are the names every surface reports it under: the daemon's /status.json
// keys and the columns of cosim's -timeseries CSV. The counters tagged "-"
// only the daemon's /metrics exports, except RunningJobs, which no surface
// exports: the auditors in internal/invariant read it.
type Counts struct {
	Nodes     int `json:"nodes"`
	Free      int `json:"free"`
	Held      int `json:"held"`
	Running   int `json:"running_nodes"`
	Queued    int `json:"queued_jobs"`
	Holding   int `json:"holding_jobs"`
	Completed int `json:"completed_jobs"`

	Cancelled    int    `json:"-"`
	RunningJobs  int    `json:"-"` // jobs, where Running counts their nodes
	Iterations   uint64 `json:"-"`
	HoldsRefused uint64 `json:"-"`
}

// Counts reads the domain's node and job state in one call.
func (m *Manager) Counts() Counts {
	return Counts{
		Nodes:        m.pool.Total(),
		Free:         m.pool.Free(),
		Held:         m.pool.Held(),
		Running:      m.pool.Running(),
		Queued:       len(m.queue),
		Holding:      len(m.holding),
		Completed:    m.completed,
		Cancelled:    m.cancelled,
		RunningJobs:  len(m.running),
		Iterations:   m.iterations,
		HoldsRefused: m.holdsRefused,
	}
}

// Cancel withdraws a job (the qdel operation): a queued job leaves the
// queue, a holding job releases its nodes, a running job is killed and its
// nodes freed, an expected job will never be submitted. Terminal jobs
// cannot be cancelled.
func (m *Manager) Cancel(id job.ID) error {
	j, ok := m.jobs.get(id)
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
// is exact, not heuristic. Past it the core orders the queue in place and,
// under the none and EASY planners, plans only what a plan can contain: the
// eligible jobs whose charge fits and the first that does not (see
// policy.Orderer.OrderFitting). The reference core orders a copy of the
// eligible jobs and plans on every iteration.
func (m *Manager) Iterate(now sim.Time) {
	m.iterations++
	if m.core == CoreIncremental && !m.anyQueuedFits() {
		m.iterStats[IterElided]++
		return
	}

	boost := m.boostFn
	if !m.demoting && !m.cfg.YieldBoost {
		boost = nil // every boost is zero: spare the call per queued job
	}
	// A job that yielded at this instant gave up its slot for the rest of
	// the instant: excluding it from the plan lets other jobs use the
	// nodes it declined (the "additional scheduling iteration" a yield
	// requests), and prevents a yield livelock within one event time.
	yielded := m.lastYield == now
	var ordered []*job.Job
	if m.core == CoreReference {
		eligible := m.queue
		if yielded {
			eligible = m.withoutYielders(now)
		}
		ordered = m.ord.Order(m.pol, eligible, now, boost)
	} else {
		// The yielders are ordered with the queue, which keeps the order
		// for the next iteration, and left out of what is returned.
		var skip func(*job.Job) bool
		if yielded {
			skip = m.skipFn
		}
		// Conservative backfilling reserves for every blocked job, so it
		// orders the whole queue.
		fit := math.MaxInt
		if m.bf != BackfillConservative {
			fit = m.pool.Fit()
		}
		ordered = m.ord.OrderFitting(m.pol, m.queue, now, boost, fit, skip)
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
// queue order, built in eligBuf: the reference core's eligible jobs. Iterate
// calls it only when some job yielded at now, so an instant without yields
// costs one comparison.
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

// yieldedLast reports whether j yielded at the latest yield instant: the
// incremental core's skip set, consulted only at that instant.
func (m *Manager) yieldedLast(j *job.Job) bool {
	return m.recs[j.Sched].yieldAt == m.lastYield
}

// mate is one of a ready job's mates, kept in mateBuf in j.Mates order:
// RunJob's probe fills it and decide sets its step.
type mate struct {
	peer  cosched.Peer
	ref   job.MateRef
	probe cosched.MateProbe
	err   error // no peer for the mate's domain, or the probe failed
	step  step
}

// step is what the co-start exchange does with one mate.
type step uint8

const (
	stepNone    step = iota // the mate imposes no constraint
	stepTry                 // queuing or unsubmitted: try_start_mate at the co-start instant
	stepRelease             // holding: start_mate once the job has started
)

// verdict is what apply does with a job.
type verdict uint8

const (
	start verdict = iota
	hold
	yield
)

// plan is decide's answer. Without coStart, v is the verdict. With it,
// every stepTry mate is tried first: if all accept, the job starts and every
// stepRelease mate is started; otherwise v (hold or yield) is the verdict.
type plan struct {
	coStart bool
	v       verdict
	refused bool // the hold budget turned a hold into the yield v
}

// knobs is the local state decide reads besides the job and its mates.
type knobs struct {
	cfg                 cosched.Config
	holdSafe            bool // see RunJob
	held, charge, total int  // nodes held now, the job's charge, the pool's size
	holding, holdBudget int  // jobs holding now, and their cap (see SetHoldBudget)
}

// decide is Algorithm 1's decision for a ready job j, made from the local
// knobs and the mates' probes alone: it does no I/O and changes nothing but
// the mates' steps.
func decide(j *job.Job, k *knobs, mates []mate) plan {
	// Lines 34–36: coscheduling disabled → start normally.
	if !k.cfg.Enabled || !j.Paired() {
		return plan{v: start}
	}
	// Partition the mates by what a simultaneous start needs. Fault
	// tolerance: a mate whose peer is unconfigured or fails, that the peer
	// does not know (lines 25–26 / 30–31), or that is already past
	// coordination (running after a fault-tolerance fallback start,
	// completed, cancelled) imposes no constraint. Every mate that needs a
	// try must have probed as startable before any try is sent (for 2-way,
	// one probe + one try: the paper's tryStartMate exchange). An N-way
	// start is still not atomic: a refused try leaves the mates already
	// tried running (an open defect; see ROADMAP.md).
	constrained, allStartable := false, true
	for i := range mates {
		mt, st := &mates[i], mates[i].probe.Status
		mt.step = stepNone
		switch {
		case mt.err != nil || !mt.probe.Known:
		case st == cosched.StatusHolding:
			mt.step = stepRelease
		case st == cosched.StatusQueuing || st == cosched.StatusUnsubmitted:
			mt.step = stepTry
			allStartable = allStartable && mt.probe.CanStart
		}
		constrained = constrained || mt.step != stepNone
	}
	if !constrained {
		return plan{v: start}
	}

	// Lines 16–23: if the mate cannot run now, hold or yield per the local
	// scheme with the §IV-E2 threshold rules. A hold that would delay a
	// blocked higher-priority job's backfill reservation is downgraded to a
	// yield regardless of configuration.
	p := plan{coStart: allStartable, v: hold}
	if k.cfg.Scheme == cosched.Yield || !k.holdSafe {
		p.v = yield
	}
	// Max-yield escalation: a job that yielded too often may hold, if it
	// may hold at all.
	if p.v == yield && k.holdSafe && k.cfg.MaxYields > 0 && j.YieldCount >= k.cfg.MaxYields {
		p.v = hold
	}
	// Held-fraction cap: a hold that would exceed the cap yields instead.
	if p.v == hold && float64(k.held+k.charge)/float64(k.total) > k.cfg.EffectiveMaxHeldFraction() {
		p.v = yield
	}
	// Degraded-mode hold budget: a journal-less daemon refuses holds
	// beyond the ceiling — holds are exactly the state that cannot be
	// rebuilt after a crash without a journal, so the budget bounds the
	// blast radius while durability is gone. Refused holds yield.
	if p.v == hold && k.holdBudget >= 0 && k.holding >= k.holdBudget {
		p.v, p.refused = yield, true
	}
	return p
}

// RunJob is Algorithm 1: start, hold, or yield a scheduled job j that the
// planner selected to run now with sufficient free nodes. holdSafe reports
// whether the job may occupy its nodes indefinitely without trampling the
// backfill reservation of a blocked higher-priority job; a job admitted
// only for its bounded walltime must yield rather than hold, since a hold
// is an unbounded occupation the EASY guarantee cannot absorb.
//
// It probes every mate (known, status and can-start in one exchange per
// mate), decides, runs the plan's exchanges, and applies the verdict.
func (m *Manager) RunJob(j *job.Job, now sim.Time, holdSafe bool) {
	j.MarkReady(now)
	mates := m.mateBuf[:0]
	if m.cfg.Enabled {
		for _, ref := range j.Mates {
			mt := mate{peer: m.peers[ref.Domain], ref: ref, err: ErrNoPeer}
			if mt.peer != nil {
				mt.probe, mt.err = cosched.ProbeMate(mt.peer, ref.Job)
			}
			mates = append(mates, mt)
		}
	}
	m.mateBuf = mates
	p := decide(j, &knobs{cfg: m.cfg, holdSafe: holdSafe, held: m.pool.Held(), charge: m.pool.ChargeFor(j.Nodes),
		total: m.pool.Total(), holding: len(m.holding), holdBudget: m.holdBudget}, mates)
	// The resolver proposes now as the group's co-start instant; every
	// callee records it verbatim (see cosched.CoStarter), so the whole
	// group shares one start time even across live wall clocks.
	v := p.v
	if p.coStart {
		v = start
		for i := range mates {
			if mt := &mates[i]; mt.step == stepTry {
				if ok, err := tryStartMateAt(mt.peer, mt.ref.Job, now); err != nil || !ok {
					v = p.v
					break
				}
			}
		}
	}
	if v == yield && p.refused {
		m.holdsRefused++
	}
	_ = m.apply(j, v, now, now) // j is queued: only a held start errs
	if p.coStart && v == start {
		// Line 14 + lines 7–8: started self, now release the holders. A
		// peer failure after our start has nothing to undo — the mate's
		// own fault tolerance applies.
		for i := range mates {
			if mt := &mates[i]; mt.step == stepRelease {
				_ = startMateAt(mt.peer, mt.ref.Job, now)
			}
		}
	}
}

// apply carries out verdict v on job j at now, and every decision site
// applies through it:
//   - start: a queued job runs on freshly allocated nodes, a holding job's
//     held nodes convert to a run (held time accrues to now, whatever
//     instant the pair agrees to record). The job records at as its start
//     instant. at == now everywhere except when a remote resolver proposed
//     the co-start instant over the wire (cosched.CoStarter) or a
//     reconciliation adopts a surviving mate's historical start; the
//     completion is always scheduled from the local clock, so adopted
//     instants never rewind the engine.
//   - hold: self.holdJob(j, N) allocates the nodes as held and arms the
//     periodic release timer.
//   - yield: self.yieldJob(j) keeps the job queued, records the yield and
//     requests another scheduling iteration so other jobs can use the nodes
//     it declined.
//
// apply accepts node state that changed since the decision: Iterate plans
// once and then runs several jobs, and an earlier hold or a mate's try can
// take nodes the plan counted. A start or hold of a queued job whose
// allocation fails leaves the job queued, fires no observer event and moves
// no IterOutcome; the next iteration decides again. Only a held start
// reports an error.
//
//simlint:hotpath
func (m *Manager) apply(j *job.Job, v verdict, at, now sim.Time) error {
	rec := m.recs[j.Sched]
	if v == yield {
		j.YieldCount++
		rec.yieldAt, m.lastYield = now, now
		m.outcome = max(m.outcome, IterYielded)
		m.obs.JobYielded(now, j)
		m.RequestIteration()
		return nil
	}
	state, kind := job.Running, cluster.AllocRun
	if v == hold {
		state, kind = job.Holding, cluster.AllocHold
	}
	if j.State == job.Holding {
		if _, err := m.pool.Convert(now, rec.alloc.ID, kind); err != nil {
			return err
		}
		setDrop(&m.holding, rec)
		m.scheduleReleaseScan()
		j.HeldNodeSeconds += int64(rec.alloc.Allocated) * (now - j.HoldStart)
	} else {
		alloc, err := m.pool.Allocate(now, j.Nodes, kind)
		if err != nil {
			return nil
		}
		m.removeFromQueue(j)
		rec.alloc = alloc
	}
	if err := j.Advance(state); err != nil {
		panic(fmt.Sprintf("resmgr %s: apply: %v", m.name, err))
	}
	if v == hold {
		j.HoldStart = now
		j.HoldCount++
		setAdd(&m.holding, rec)
		m.outcome = max(m.outcome, IterHeld)
		m.obs.JobHeld(now, j)
		m.scheduleReleaseScan()
		return nil
	}
	j.StartTime = at
	m.runReleaseAdd(rec)
	setAdd(&m.running, rec)
	rec.end = m.eng.AfterArg(j.Runtime, sim.PriorityEnd, m.completeFn, rec)
	m.outcome = IterStarted
	m.obs.JobStarted(at, j)
	return nil
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

// PeerName implements cosched.Peer.
func (m *Manager) PeerName() string { return m.name }

// GetMateJob implements cosched.Peer: true if the job is registered here in
// any state.
func (m *Manager) GetMateJob(id job.ID) (bool, error) {
	p, _ := m.ProbeMate(id)
	return p.Known, nil
}

// GetMateStatus implements cosched.Peer.
func (m *Manager) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	p, _ := m.ProbeMate(id)
	return p.Status, nil
}

// CanStartMate implements cosched.Peer: reports whether TryStartMate would
// succeed right now, without side effects.
func (m *Manager) CanStartMate(id job.ID) (bool, error) {
	p, _ := m.ProbeMate(id)
	return p.CanStart, nil
}

// ProbeMate implements cosched.Prober: the answers to the three queries
// above from one lookup. An unknown job's probe is the zero MateProbe, whose
// status is StatusUnknown.
func (m *Manager) ProbeMate(id job.ID) (cosched.MateProbe, error) {
	j, ok := m.jobs.get(id)
	if !ok {
		return cosched.MateProbe{}, nil
	}
	p := cosched.MateProbe{Known: true, Status: cosched.FromJobState(j.State)}
	switch j.State {
	case job.Queued:
		p.CanStart = m.pool.CanAllocate(j.Nodes)
	case job.Holding, job.Running:
		p.CanStart = true
	}
	return p, nil
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
	return m.startMate("try_start_mate", id, at)
}

// StartMate implements cosched.Peer: release a holding mate into execution
// (Algorithm 1 line 8). A mate already running since this instant is
// acknowledged again; one that started at another instant is an error.
func (m *Manager) StartMate(id job.ID) error {
	return m.StartMateAt(id, m.eng.Now())
}

// StartMateAt implements cosched.CoStarter: StartMate recording the
// caller's proposed co-start instant as the mate's StartTime.
func (m *Manager) StartMateAt(id job.ID, at sim.Time) error {
	_, err := m.startMate("start_mate", id, at)
	return err
}

// startMate is the callee's side of both start requests: read the job's
// state, apply a start at the proposed instant, and report the outcome to
// the observer once. A try may start a queued job that fits; a start_mate
// wants a holding one and errs on anything but holding or running. A start
// answer names its instant: "started" means the job runs since at, so a job
// that started at another instant answers "not started" to a try and errs
// to a start_mate.
func (m *Manager) startMate(method string, id job.ID, at sim.Time) (bool, error) {
	now := m.eng.Now()
	try := method == "try_start_mate"
	j, ok := m.jobs.get(id)
	var err error
	switch {
	case !ok:
		if !try {
			err = fmt.Errorf("%w: %d", ErrUnknownJob, id)
		}
	case j.State == job.Holding:
		err = m.apply(j, start, at, now)
	case j.State == job.Queued && try && m.pool.CanAllocate(j.Nodes):
		j.MarkReady(now)
		err = m.apply(j, start, at, now)
	case j.State == job.Running && j.StartTime != at && !try:
		err = fmt.Errorf("%w: job %d started at %d, not at %d", ErrBadState, id, j.StartTime, at)
	case j.State != job.Running && !try:
		err = fmt.Errorf("%w: job %d is %s, want holding", ErrBadState, id, j.State)
	}
	started := ok && err == nil && j.State == job.Running && j.StartTime == at
	m.obs.PeerDecision(now, method, id, started)
	return started, err
}
