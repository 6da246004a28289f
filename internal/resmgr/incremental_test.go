package resmgr

import (
	"math"
	"math/rand"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// checkQueueIndex asserts the queue structures are consistent with the live
// job set after an arbitrary Submit/Cancel history: exact membership, every
// queued job's record pointing back at it (and, in position-indexed mode, at
// its slot), storage order agreeing with the canonical policy order (sorted
// mode), and the smallest-charge bound never above the true minimum.
func checkQueueIndex(t *testing.T, m *Manager, live map[job.ID]*job.Job) {
	t.Helper()
	if len(m.queue) != len(live) {
		t.Fatalf("queue length = %d, want %d", len(m.queue), len(live))
	}
	seen := make(map[job.ID]bool, len(m.queue))
	for i, q := range m.queue {
		if _, ok := live[q.ID]; !ok {
			t.Fatalf("queue[%d] holds cancelled job %d", i, q.ID)
		}
		if seen[q.ID] {
			t.Fatalf("job %d appears twice in queue", q.ID)
		}
		seen[q.ID] = true
		rec := m.recs[q.Sched]
		if rec.j != q {
			t.Fatalf("job %d: record %d belongs to %v", q.ID, q.Sched, rec.j)
		}
		if m.core == CoreIncremental && !m.sortedQueue && int(rec.pos) != i {
			t.Fatalf("job %d: record says position %d, job is at %d", q.ID, rec.pos, i)
		}
	}
	if got, want := len(m.recs)-1-len(m.freeRecs), len(m.queue); got != want {
		t.Fatalf("%d records in use, %d jobs queued", got, want)
	}
	lo := math.MaxInt
	for _, q := range m.queue {
		lo = min(lo, m.pool.ChargeFor(q.Nodes))
	}
	if m.minCharge > lo || (m.minExact && m.minCharge != lo) {
		t.Fatalf("minCharge = %d (exact=%v), smallest queued charge is %d", m.minCharge, m.minExact, lo)
	}
	if m.sortedQueue {
		var ord policy.Orderer
		want := ord.Order(m.pol, m.queue, 0, func(*job.Job) float64 { return 0 })
		for i := range want {
			if want[i] != m.queue[i] {
				t.Fatalf("sorted queue out of canonical order at %d: have job %d, want %d",
					i, m.queue[i].ID, want[i].ID)
			}
		}
	}
}

// TestQueueIndexInterleavedCancelSubmit drives hundreds of interleaved
// Submit/Cancel operations against each queue representation — sorted
// (time-invariant policy), position-indexed (time-varying policy), and the
// reference linear scan — and checks the index invariants after every step.
// The engine never runs, so every job stays queued until cancelled.
func TestQueueIndexInterleavedCancelSubmit(t *testing.T) {
	cases := []struct {
		name string
		pol  policy.Policy
		core Core
	}{
		{"incremental_sorted_sjf", policy.SJF{}, CoreIncremental},
		{"incremental_indexed_wfp", policy.WFP{}, CoreIncremental},
		{"reference_sjf", policy.SJF{}, CoreReference},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			m := New(eng, Options{
				Name: "q", Pool: cluster.New("q", 1),
				Policy: tc.pol, Core: tc.core,
			})
			if tc.core == CoreIncremental {
				wantSorted := policy.IsTimeInvariant(tc.pol)
				if m.sortedQueue != wantSorted {
					t.Fatalf("sortedQueue = %v, want %v", m.sortedQueue, wantSorted)
				}
			}
			rng := rand.New(rand.NewSource(42))
			live := map[job.ID]*job.Job{}
			var order []job.ID // insertion order, for deterministic victim picks
			nextID := job.ID(1)
			for step := 0; step < 600; step++ {
				if len(order) == 0 || rng.Intn(3) != 0 {
					wall := sim.Duration(60 + rng.Intn(5000))
					j := job.New(nextID, 1+rng.Intn(4), 0, wall, wall)
					nextID++
					if err := m.Submit(j); err != nil {
						t.Fatalf("step %d: submit: %v", step, err)
					}
					live[j.ID] = j
					order = append(order, j.ID)
				} else {
					k := rng.Intn(len(order))
					id := order[k]
					order = append(order[:k], order[k+1:]...)
					if err := m.Cancel(id); err != nil {
						t.Fatalf("step %d: cancel %d: %v", step, id, err)
					}
					delete(live, id)
				}
				checkQueueIndex(t, m, live)
			}
		})
	}
}

// pairDomainsCore is pairDomains with an explicit scheduling core.
func pairDomainsCore(t *testing.T, core Core, cfgA, cfgB cosched.Config) (*sim.Engine, *Manager, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	a := New(eng, Options{
		Name: "A", Pool: cluster.New("A", 100),
		Policy: policy.FCFS{}, Backfilling: true, Cosched: cfgA, Core: core,
	})
	b := New(eng, Options{
		Name: "B", Pool: cluster.New("B", 100),
		Policy: policy.FCFS{}, Backfilling: true, Cosched: cfgB, Core: core,
	})
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	return eng, a, b
}

// TestCancelHoldingJobRetriggersIteration pins the cancel→replan path on
// both cores: cancelling a holding job frees its nodes and the iteration it
// requests must start the blocked job at the same instant — in particular
// the incremental core's no-fit elision must notice the freed nodes.
func TestCancelHoldingJobRetriggersIteration(t *testing.T) {
	for _, core := range []Core{CoreReference, CoreIncremental} {
		t.Run(core.String(), func(t *testing.T) {
			cfg := cosched.DefaultConfig(cosched.Hold)
			eng, a, b := pairDomainsCore(t, core, cfg, cfg)
			ja := job.New(1, 100, 0, 600, 600)
			jb := job.New(1, 10, 5000, 600, 600)
			pairJobs(ja, jb)
			blocked := job.New(2, 100, 10, 600, 600)
			submitAll(t, a, ja, blocked)
			submitAll(t, b, jb)
			eng.RunUntil(100)
			if ja.State != job.Holding {
				t.Fatalf("ja state = %s, want holding", ja.State)
			}
			if err := a.Cancel(1); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if blocked.StartTime != 100 {
				t.Fatalf("blocked start = %d, want 100 (cancel instant)", blocked.StartTime)
			}
			if blocked.State != job.Completed {
				t.Fatalf("blocked state = %s", blocked.State)
			}
		})
	}
}

// steadyBlocked builds a one-domain blocked steady state: a 90-node filler
// runs on a 100-node pool and every queued job needs 20 nodes, so no plan
// can start or backfill anything until capacity changes.
func steadyBlocked(t *testing.T, core Core) (*sim.Engine, *Manager, []*job.Job) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, Options{
		Name: "s", Pool: cluster.New("s", 100),
		Policy: policy.FCFS{}, Backfilling: true, Core: core,
	})
	filler := job.New(1, 90, 0, 100000, 100000)
	blocked := []*job.Job{
		job.New(2, 20, 0, 600, 600),
		job.New(3, 20, 0, 600, 600),
		job.New(4, 20, 0, 600, 600),
	}
	if err := m.Submit(filler); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(0)
	for _, j := range blocked {
		if err := m.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(0)
	if filler.State != job.Running || m.QueueLength() != 3 {
		t.Fatalf("scenario did not settle: filler=%s queue=%d", filler.State, m.QueueLength())
	}
	return eng, m, blocked
}

// TestNoFitElisionEngagesAndLapses is the elision white-box test: while no
// queued job fits the free nodes iterations are elided — at any instant, and
// across queue changes that leave nothing fitting — they still count in
// Iterations(), and the elision stops the instant a fitting job is submitted
// or nodes free up.
func TestNoFitElisionEngagesAndLapses(t *testing.T) {
	_, m, blocked := steadyBlocked(t, CoreIncremental)

	iters, skips := m.Iterations(), m.Skips()
	m.Iterate(0)
	m.Iterate(100)
	if m.Skips() != skips+2 || m.Iterations() != iters+2 {
		t.Fatalf("blocked steady state: skips %d→%d iterations %d→%d, want +2 each",
			skips, m.Skips(), iters, m.Iterations())
	}

	// Cancelling a queued job (it set the smallest-charge bound) leaves
	// the survivors as blocked as before: still elided, nothing moves.
	if err := m.Cancel(blocked[2].ID); err != nil {
		t.Fatal(err)
	}
	skips = m.Skips()
	m.Iterate(100)
	if m.Skips() != skips+1 || m.RunningCount() != 1 || m.QueueLength() != 2 {
		t.Fatalf("after cancel: skips %d→%d running=%d queue=%d",
			skips, m.Skips(), m.RunningCount(), m.QueueLength())
	}

	// A job that fits the 10 free nodes ends the elision at once.
	fits := job.New(9, 10, 0, 600, 600)
	if err := m.Submit(fits); err != nil {
		t.Fatal(err)
	}
	skips = m.Skips()
	m.Iterate(100)
	if m.Skips() != skips || fits.State != job.Running {
		t.Fatalf("fitting job: skips %d→%d, state %s", skips, m.Skips(), fits.State)
	}
	m.Iterate(100) // pool full again
	if m.Skips() != skips+1 {
		t.Fatalf("elision did not re-engage on the refilled pool")
	}

	// Freed nodes end it too: cancelling the filler lets the survivors in.
	if err := m.Cancel(1); err != nil {
		t.Fatal(err)
	}
	skips = m.Skips()
	m.Iterate(100)
	if m.Skips() != skips {
		t.Fatalf("iteration after nodes freed up was elided")
	}
	if m.RunningCount() != 3 || m.QueueLength() != 0 {
		t.Fatalf("freed capacity not used: running=%d queue=%d", m.RunningCount(), m.QueueLength())
	}

	var sum uint64
	for _, n := range m.IterationStats() {
		sum += n
	}
	if sum != m.Iterations() {
		t.Fatalf("IterationStats sums to %d, Iterations() = %d", sum, m.Iterations())
	}
}

// TestNoElisionWhileOnlyFitIsExcludedYielder pins which queue the elision
// tests: the whole one. A job that yielded at this instant is excluded from
// the follow-up iteration's plan, but while it is queued and fits, that
// iteration is planned (over an empty eligible set), not counted as elided.
func TestNoElisionWhileOnlyFitIsExcludedYielder(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	eng, a, b := pairDomainsCore(t, CoreIncremental, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 5000, 600, 600)
	pairJobs(ja, jb)
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.RunUntil(0)
	if ja.State != job.Queued || ja.YieldCount != 1 {
		t.Fatalf("ja state=%s yields=%d, want queued after one yield", ja.State, ja.YieldCount)
	}
	st := a.IterationStats()
	if a.Iterations() != 2 || st[IterYielded] != 1 || st[IterPlannedNothing] != 1 || a.Skips() != 0 {
		t.Fatalf("iterations=%d stats=%v, want one yielded and one planned-nothing", a.Iterations(), st)
	}
}

// TestYieldInstantWithNothingEligibleFittingPlansNothing: the elision's test
// counts a job that yielded at this instant, but the follow-up iteration's plan
// excludes it. When the yielder is the only queued job that fits, nothing
// eligible fits and the iteration starts nothing and counts as
// planned-nothing — by the incremental core's early return as by the
// reference core's empty plan.
func TestYieldInstantWithNothingEligibleFittingPlansNothing(t *testing.T) {
	for _, core := range []Core{CoreIncremental, CoreReference} {
		cfg := cosched.DefaultConfig(cosched.Yield)
		eng := sim.NewEngine()
		// WFP: a time-varying policy, so the incremental core orders the
		// queue on every iteration instead of keeping it sorted.
		mk := func(name string) *Manager {
			return New(eng, Options{Name: name, Pool: cluster.New(name, 100), Policy: policy.WFP{},
				Backfilling: true, Cosched: cfg, Core: core})
		}
		a, b := mk("A"), mk("B")
		a.AddPeer("B", b)
		b.AddPeer("A", a)
		filler := job.New(1, 80, 0, 600, 600)
		ja := job.New(2, 10, 0, 600, 600)      // fits the 20 free nodes, yields: its mate is not there yet
		blocked := job.New(3, 50, 0, 600, 600) // eligible at the yield instant, does not fit
		jb := job.New(2, 10, 5000, 600, 600)
		pairJobs(ja, jb)
		submitAll(t, a, filler, ja, blocked)
		submitAll(t, b, jb)
		eng.RunUntil(0)
		if filler.State != job.Running || ja.State != job.Queued || ja.YieldCount != 1 || blocked.State != job.Queued {
			t.Fatalf("%s: filler %s, ja %s after %d yields, blocked %s", core, filler.State, ja.State, ja.YieldCount, blocked.State)
		}
		want := [NumIterOutcomes]uint64{IterStarted: 1, IterPlannedNothing: 1}
		if st := a.IterationStats(); st != want || a.Iterations() != 2 {
			t.Fatalf("%s: iterations=%d stats=%v, want %v", core, a.Iterations(), st, want)
		}
		// An iteration that reaches the planner resets m.outcome first; the
		// incremental core's must have returned before that.
		if reached := a.outcome == IterPlannedNothing; reached != (core == CoreReference) {
			t.Fatalf("%s: follow-up iteration reached the planner = %v", core, reached)
		}
	}
}

// TestYieldHoldStartCompleteLeavesNoState is the regression test for the
// per-job state a yield used to leave behind: a job that yields, escalates
// to a hold (MaxYields), co-starts from the hold and completes must leave
// nothing in the scheduler beyond its registry entry.
func TestYieldHoldStartCompleteLeavesNoState(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	cfg.MaxYields = 1
	eng, a, b := pairDomainsCore(t, CoreIncremental, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 5000, 600, 600)
	pairJobs(ja, jb)
	nudge := job.New(2, 10, 50, 60, 60) // its arrival re-plans ja, which now holds
	submitAll(t, a, ja, nudge)
	submitAll(t, b, jb)
	eng.RunUntil(100)
	if ja.State != job.Holding || ja.YieldCount != 1 {
		t.Fatalf("ja state=%s yields=%d, want holding after one yield", ja.State, ja.YieldCount)
	}
	eng.Run()
	if ja.State != job.Completed || ja.StartTime != 5000 || jb.StartTime != 5000 {
		t.Fatalf("ja state=%s start=%d, jb start=%d; want a co-start at 5000", ja.State, ja.StartTime, jb.StartTime)
	}
	for _, m := range []*Manager{a, b} {
		if len(m.queue)+len(m.holding)+len(m.running) != 0 {
			t.Fatalf("%s: queue=%d holding=%d running=%d after the run", m.name, len(m.queue), len(m.holding), len(m.running))
		}
		if len(m.freeRecs) != len(m.recs)-1 {
			t.Fatalf("%s: %d of %d records still in use", m.name, len(m.recs)-1-len(m.freeRecs), len(m.recs)-1)
		}
		for _, rec := range m.recs[1:] {
			if *rec != (schedRec{slot: rec.slot}) {
				t.Fatalf("%s: idle record keeps state: %+v", m.name, *rec)
			}
		}
		for _, j := range m.all {
			if j.Sched != 0 {
				t.Fatalf("%s: terminal job %d still points at record %d", m.name, j.ID, j.Sched)
			}
		}
		if m.pool.Allocations() != 0 {
			t.Fatalf("%s: %d grants outlive the run", m.name, m.pool.Allocations())
		}
	}
}

// TestReferenceCoreNeverSkips pins the reference core to the original
// semantics: every iteration planned, no maintained structures.
func TestReferenceCoreNeverSkips(t *testing.T) {
	_, m, _ := steadyBlocked(t, CoreReference)
	if m.sortedQueue || m.maintainTL {
		t.Fatalf("reference core enabled incremental structures")
	}
	for i := 0; i < 5; i++ {
		m.Iterate(0)
	}
	if m.Skips() != 0 {
		t.Fatalf("reference core skipped %d iterations", m.Skips())
	}
	if got := m.IterationStats()[IterPlannedNothing]; got < 5 {
		t.Fatalf("reference core planned %d blocked iterations, want at least 5", got)
	}
}

// TestStartCompleteCycleWithoutAllocating pins the spine's allocation
// property: once the record table, the pool's slot table and the engine's
// event list are warm, replaying a trace — submit, iterate, start, complete,
// twenty jobs at a time through a pool that fits ten — allocates nothing.
func TestStartCompleteCycleWithoutAllocating(t *testing.T) {
	const perRun, runs = 20, 50
	eng := sim.NewEngine()
	m := New(eng, Options{
		Name: "z", Pool: cluster.NewPartitioned("z", 80, 8),
		Policy: policy.WFP{}, Backfilling: true,
	})
	trace := make([]*job.Job, 0, perRun*(runs+2))
	for i := 0; i < cap(trace); i++ {
		run, k := i/perRun, i%perRun
		trace = append(trace, job.New(job.ID(i+1), 5+k%4, sim.Time(run*1000+k), 100, 100))
	}
	if err := m.SubmitTrace(trace); err != nil {
		t.Fatal(err)
	}
	next := sim.Time(0)
	step := func() {
		next += 1000
		eng.RunUntil(next - 1)
	}
	step() // warm-up: tables and buffers reach their steady sizes
	allocs := testing.AllocsPerRun(runs, step)
	if allocs != 0 {
		t.Fatalf("start/complete churn allocates %.1f per %d-job cycle, want 0", allocs, perRun)
	}
	if m.CompletedCount() != perRun*(runs+2) || m.Skips() == 0 {
		t.Fatalf("completed=%d skips=%d: the churn did not run as designed", m.CompletedCount(), m.Skips())
	}
}
