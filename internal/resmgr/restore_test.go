package resmgr

import (
	"fmt"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// held fabricates a journal-recovered holding job, the way replay would
// hand it to RestoreJob after a crash.
func held(id job.ID, nodes int, mateDomain string, mate job.ID, holdStart sim.Time) *job.Job {
	j := job.New(id, nodes, 0, 600, 600)
	j.Mates = []job.MateRef{{Domain: mateDomain, Job: mate}}
	j.State = job.Holding
	j.HoldStart = holdStart
	j.HoldCount = 1
	j.EverReady = true
	j.FirstReadyTime = holdStart
	return j
}

func restoreAll(t *testing.T, m *Manager, jobs ...*job.Job) {
	t.Helper()
	for _, j := range jobs {
		if err := m.RestoreJob(j); err != nil {
			t.Fatalf("%s: restore %d: %v", m.Name(), j.ID, err)
		}
	}
}

func TestReconcileBothHoldingCoStartsAtOneInstant(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := held(1, 10, "B", 1, 0)
	jb := held(1, 10, "A", 1, 30)
	restoreAll(t, a, ja)
	restoreAll(t, b, jb)
	eng.RunUntil(100)

	rep, err := a.ReconcileWith("B", b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoStarts != 1 || rep.Released != 0 || rep.Adopted != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if ja.State != job.Running || jb.State != job.Running {
		t.Fatalf("states: %s / %s", ja.State, jb.State)
	}
	// The caller's clock is the one agreed instant, recorded verbatim on
	// both sides — the byte-exact co-start the event log verifier checks.
	if ja.StartTime != 100 || jb.StartTime != 100 {
		t.Fatalf("starts: %d / %d, want 100/100", ja.StartTime, jb.StartTime)
	}
	// Held time accrued up to the co-start on both sides.
	if ja.HeldNodeSeconds != 10*100 || jb.HeldNodeSeconds != 10*70 {
		t.Fatalf("held node-seconds: %d / %d", ja.HeldNodeSeconds, jb.HeldNodeSeconds)
	}
	eng.Run()
	if ja.State != job.Completed || jb.State != job.Completed {
		t.Fatalf("final states: %s / %s", ja.State, jb.State)
	}
}

func TestReconcileReleasesHoldForLostMate(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := held(1, 10, "B", 1, 0) // B has no record of job 1
	restoreAll(t, a, ja)
	eng.RunUntil(50)

	rep, err := a.ReconcileWith("B", b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Released != 1 || rep.CoStarts != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if ja.State != job.Queued {
		t.Fatalf("state = %s, want queued", ja.State)
	}
	if ja.HeldNodeSeconds != 10*50 {
		t.Fatalf("held node-seconds = %d, want 500", ja.HeldNodeSeconds)
	}
	if free := a.Pool().Free(); free != 100 {
		t.Fatalf("pool free = %d after release", free)
	}
	// Back in the queue, Run_Job's fault tolerance sees an unknown mate
	// and starts the job normally.
	eng.Run()
	if ja.State != job.Completed {
		t.Fatalf("final state = %s", ja.State)
	}
	if ja.StartTime != 50 {
		t.Fatalf("start = %d, want 50 (started at the next iteration)", ja.StartTime)
	}
}

func TestReconcileKeepsHoldForQueuedMate(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := held(1, 10, "B", 1, 0)
	jb := job.New(1, 10, 0, 600, 600)
	jb.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	jb.State = job.Queued
	restoreAll(t, a, ja)
	restoreAll(t, b, jb)
	eng.RunUntil(40)

	rep, err := a.ReconcileWith("B", b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 1 || rep.Released != 0 || rep.CoStarts != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if ja.State != job.Holding {
		t.Fatalf("state = %s, want holding (mate still coming)", ja.State)
	}
	// The normal path then co-starts the pair when B's queue drains.
	eng.Run()
	if ja.State != job.Completed || jb.State != job.Completed {
		t.Fatalf("final states: %s / %s", ja.State, jb.State)
	}
	if ja.StartTime != jb.StartTime {
		t.Fatalf("co-start violated: %d vs %d", ja.StartTime, jb.StartTime)
	}
}

func TestReconcileAdoptsRunningMateInstant(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := held(1, 10, "B", 1, 0)
	jb := job.New(1, 10, 0, 600, 600)
	jb.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	jb.State = job.Running
	jb.StartTime = 50 // the mate fell back and started while we were down
	restoreAll(t, a, ja)
	eng.RunUntil(60)
	restoreAll(t, b, jb)
	eng.RunUntil(120)

	rep, err := a.ReconcileWith("B", b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if ja.State != job.Running {
		t.Fatalf("state = %s, want running", ja.State)
	}
	// The mate's recorded instant is adopted so both logs agree, even
	// though our job physically started at t=120.
	if ja.StartTime != 50 {
		t.Fatalf("start = %d, want 50 (adopted)", ja.StartTime)
	}
	eng.Run()
	if ja.State != job.Completed || jb.State != job.Completed {
		t.Fatalf("final states: %s / %s", ja.State, jb.State)
	}
}

func TestReconcileCalleeReleasesWhenCallerLostJob(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	// B holds for A's job 1, but A's journal lost it entirely.
	jb := held(1, 10, "A", 1, 0)
	restoreAll(t, b, jb)
	eng.RunUntil(25)

	rep, err := a.ReconcileWith("B", b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 0 {
		t.Fatalf("caller sent %d views, want 0", rep.Sent)
	}
	// The callee applied the absence: its orphaned hold is released.
	if jb.State != job.Queued {
		t.Fatalf("callee hold state = %s, want queued", jb.State)
	}
	eng.Run()
	if jb.State != job.Completed {
		t.Fatalf("final state = %s", jb.State)
	}
}

func TestReconcileIsIdempotent(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := held(1, 10, "B", 1, 0)
	jb := held(1, 10, "A", 1, 0)
	restoreAll(t, a, ja)
	restoreAll(t, b, jb)
	eng.RunUntil(100)

	for i := 0; i < 3; i++ {
		rep, err := a.ReconcileWith("B", b)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if i == 0 && rep.CoStarts != 1 {
			t.Fatalf("first round: %+v", rep)
		}
		if i > 0 && (rep.CoStarts != 0 || rep.Released != 0 || rep.Adopted != 0) {
			t.Fatalf("round %d not a no-op: %+v", i, rep)
		}
	}
	if ja.StartTime != 100 || jb.StartTime != 100 {
		t.Fatalf("starts drifted: %d / %d", ja.StartTime, jb.StartTime)
	}
}

func TestDrainViewsReportsNonTerminalPairs(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	_, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	holding := held(1, 10, "B", 1, 0)
	queued := job.New(2, 10, 0, 600, 600)
	queued.Mates = []job.MateRef{{Domain: "B", Job: 2}}
	queued.State = job.Queued
	done := job.New(3, 10, 0, 600, 600)
	done.Mates = []job.MateRef{{Domain: "B", Job: 3}}
	done.State = job.Completed
	plain := job.New(4, 10, 0, 600, 600) // unpaired: never reported
	plain.State = job.Queued
	restoreAll(t, a, holding, queued, done, plain)

	views := a.DrainViews()
	got, ok := views["B"]
	if !ok || len(views) != 1 {
		t.Fatalf("views: %+v", views)
	}
	if len(got) != 2 {
		t.Fatalf("reported %d pairs, want 2 (holding + queued)", len(got))
	}
	for _, v := range got {
		if v.Status != cosched.StatusUnknown {
			t.Fatalf("drain view status = %s, want unknown", v.Status)
		}
	}
	if got[0].Local != 1 || got[1].Local != 2 {
		t.Fatalf("drain views out of order: %+v", got)
	}
}

func TestRestoreJobRejectsDuplicatesAndOverflow(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	_, a, _ := pairDomains(t, 16, 16, cfg, cfg)
	j := held(1, 10, "B", 1, 0)
	restoreAll(t, a, j)
	if err := a.RestoreJob(held(1, 4, "B", 1, 0)); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	// Only 6 nodes left: a second 10-node hold cannot be re-acquired.
	if err := a.RestoreJob(held(2, 10, "B", 2, 0)); err == nil {
		t.Fatal("over-capacity restore accepted")
	}
}

func TestRestoreRunningJobPastDeadlineCompletesImmediately(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	eng.RunUntil(1000)
	j := job.New(1, 10, 0, 600, 600)
	j.State = job.Running
	j.StartTime = 100 // would have finished at 700, before the restart
	restoreAll(t, a, j)
	eng.Run()
	if j.State != job.Completed {
		t.Fatalf("state = %s", j.State)
	}
	if j.EndTime != 1000 {
		t.Fatalf("end = %d, want 1000 (completed at restart, not rewound)", j.EndTime)
	}
}

// TestReconcileBothDaemonsRestartSimultaneously models the coupled-outage
// recovery: both daemons come back from their journals at once and each
// initiates reconciliation with the other (the order is a race). Whatever
// the order, the pass that runs first settles every pair and the reverse
// pass must be a pure no-op, and the co-start instants recorded on the two
// sides must be byte-identical — run both orderings on identical worlds
// and compare the full tables.
func TestReconcileBothDaemonsRestartSimultaneously(t *testing.T) {
	type world struct {
		eng  *sim.Engine
		a, b *Manager
	}
	build := func() world {
		cfg := cosched.DefaultConfig(cosched.Hold)
		eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
		// A mixed restored state: pair 1 both holding, pair 2 holding
		// against a still-queued mate, pair 3 holding against a mate the
		// other journal lost.
		restoreAll(t, a, held(1, 10, "B", 1, 0), held(2, 10, "B", 2, 10), held(3, 10, "B", 3, 20))
		jb1 := held(1, 10, "A", 1, 30)
		jb2 := job.New(2, 10, 0, 600, 600)
		jb2.Mates = []job.MateRef{{Domain: "A", Job: 2}}
		restoreAll(t, b, jb1, jb2)
		eng.RunUntil(100)
		return world{eng, a, b}
	}

	run := func(w world, aFirst bool) {
		t.Helper()
		order := []func() (ReconcileReport, error){
			func() (ReconcileReport, error) { return w.a.ReconcileWith("B", w.b) },
			func() (ReconcileReport, error) { return w.b.ReconcileWith("A", w.a) },
		}
		if !aFirst {
			order[0], order[1] = order[1], order[0]
		}
		first, err := order[0]()
		if err != nil {
			t.Fatal(err)
		}
		// Pair 1 co-starts on the first pass whoever initiates. (Pair 3's
		// release lands on the caller side in one order and the callee
		// side in the other, so it is asserted on final state below.)
		if first.CoStarts != 1 {
			t.Fatalf("first pass report: %+v, want 1 co-start (pair 1)", first)
		}
		second, err := order[1]()
		if err != nil {
			t.Fatal(err)
		}
		if second.CoStarts != 0 || second.Released != 0 || second.Adopted != 0 {
			t.Fatalf("reverse pass changed state: %+v", second)
		}
	}

	snapshot := func(w world) string {
		var s string
		for _, m := range []*Manager{w.a, w.b} {
			m.EachJob(func(j *job.Job) {
				s += fmt.Sprintf("%s/%d:%s@%d;", m.Name(), j.ID, j.State, j.StartTime)
			})
		}
		return s
	}

	w1, w2 := build(), build()
	run(w1, true)
	run(w2, false)

	// The settled pair co-started at one instant on both sides.
	for _, w := range []world{w1, w2} {
		ja, _ := w.a.Job(1)
		jb, _ := w.b.Job(1)
		if ja.State != job.Running || jb.State != job.Running || ja.StartTime != jb.StartTime {
			t.Fatalf("pair 1: %s@%d / %s@%d, want both running at one instant",
				ja.State, ja.StartTime, jb.State, jb.StartTime)
		}
		// Pair 2's mate is still queued: the hold survives reconciliation.
		if j, _ := w.a.Job(2); j.State != job.Holding {
			t.Fatalf("pair 2 on A: %s, want still holding", j.State)
		}
		// Pair 3's mate is gone from B's journal: the hold is released.
		if j, _ := w.a.Job(3); j.State != job.Queued {
			t.Fatalf("pair 3 on A: %s, want released back to queuing", j.State)
		}
	}

	// Initiation order must not change a single byte of the tables.
	if s1, s2 := snapshot(w1), snapshot(w2); s1 != s2 {
		t.Fatalf("tables diverge with initiation order:\nA-first: %s\nB-first: %s", s1, s2)
	}
}
