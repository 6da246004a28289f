package resmgr

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/sim"
)

// pairDomains builds two managers on one engine, wired directly as peers.
func pairDomains(t *testing.T, nodesA, nodesB int, cfgA, cfgB cosched.Config) (*sim.Engine, *Manager, *Manager) {
	return pairDomainsCore(t, CoreIncremental, nodesA, nodesB, cfgA, cfgB)
}

// pairDomainsCore is pairDomains with an explicit scheduling core.
func pairDomainsCore(t *testing.T, core Core, nodesA, nodesB int, cfgA, cfgB cosched.Config) (*sim.Engine, *Manager, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	mk := func(name string, nodes int, cfg cosched.Config) *Manager {
		return New(eng, Options{Name: name, Pool: cluster.New(name, nodes),
			Policy: policy.FCFS{}, Backfilling: true, Cosched: cfg, Core: core})
	}
	a, b := mk("A", nodesA, cfgA), mk("B", nodesB, cfgB)
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	return eng, a, b
}

func pairJobs(ja, jb *job.Job) {
	ja.Mates = []job.MateRef{{Domain: "B", Job: jb.ID}}
	jb.Mates = []job.MateRef{{Domain: "A", Job: ja.ID}}
}

func submitAll(t *testing.T, m *Manager, jobs ...*job.Job) {
	t.Helper()
	for _, j := range jobs {
		if err := m.SubmitAt(j); err != nil {
			t.Fatalf("%s: submit %d: %v", m.Name(), j.ID, err)
		}
	}
}

func TestSingleJobRuns(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j := job.New(1, 50, 10, 600, 600)
	submitAll(t, a, j)
	eng.Run()
	if j.State != job.Completed {
		t.Fatalf("job state = %s, want completed", j.State)
	}
	if j.StartTime != 10 || j.EndTime != 610 {
		t.Fatalf("start=%d end=%d, want 10/610", j.StartTime, j.EndTime)
	}
	if a.Pool().Free() != 100 {
		t.Fatalf("pool not drained: %s", a.Pool())
	}
}

func TestFCFSQueueing(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j1 := job.New(1, 80, 0, 1000, 1000)
	j2 := job.New(2, 80, 5, 1000, 1000) // must wait for j1
	submitAll(t, a, j1, j2)
	eng.Run()
	if j2.StartTime != 1000 {
		t.Fatalf("j2 start = %d, want 1000", j2.StartTime)
	}
	if got := j2.WaitTime(); got != 995 {
		t.Fatalf("j2 wait = %d, want 995", got)
	}
}

func TestBackfillThroughManager(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j1 := job.New(1, 80, 0, 1000, 1000)
	j2 := job.New(2, 90, 5, 1000, 1000) // blocked until j1 ends
	j3 := job.New(3, 20, 6, 500, 500)   // short; fits beside j1, ends before shadow
	submitAll(t, a, j1, j2, j3)
	eng.Run()
	if j3.StartTime != 6 {
		t.Fatalf("j3 start = %d, want 6 (backfilled)", j3.StartTime)
	}
	if j2.StartTime != 1000 {
		t.Fatalf("j2 start = %d, want 1000 (reservation honored)", j2.StartTime)
	}
}

func TestCoschedulingDisabledIgnoresMates(t *testing.T) {
	eng, a, b := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 5000, 600, 600)
	pairJobs(ja, jb)
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.Run()
	if ja.StartTime != 0 {
		t.Fatalf("ja start = %d, want 0 (cosched disabled)", ja.StartTime)
	}
	if jb.StartTime != 5000 {
		t.Fatalf("jb start = %d, want 5000", jb.StartTime)
	}
}

func TestHoldThenMateArrivesCoStart(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 300, 600, 600) // arrives 5 min later
	pairJobs(ja, jb)
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.Run()
	if ja.State != job.Completed || jb.State != job.Completed {
		t.Fatalf("states: ja=%s jb=%s", ja.State, jb.State)
	}
	if ja.StartTime != jb.StartTime {
		t.Fatalf("co-start violated: ja=%d jb=%d", ja.StartTime, jb.StartTime)
	}
	if ja.StartTime != 300 {
		t.Fatalf("pair started at %d, want 300 (when jb arrived)", ja.StartTime)
	}
	if ja.HoldCount != 1 {
		t.Fatalf("ja holds = %d, want 1", ja.HoldCount)
	}
	if want := int64(10) * 300; ja.HeldNodeSeconds != want {
		t.Fatalf("ja held node-seconds = %d, want %d", ja.HeldNodeSeconds, want)
	}
	if got := ja.SyncTime(); got != 300 {
		t.Fatalf("ja sync time = %d, want 300", got)
	}
	if got := jb.SyncTime(); got != 0 {
		t.Fatalf("jb sync time = %d, want 0", got)
	}
}

func TestYieldThenTryStartMateCoStart(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 300, 600, 600)
	pairJobs(ja, jb)
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.Run()
	if ja.StartTime != jb.StartTime || ja.StartTime != 300 {
		t.Fatalf("co-start: ja=%d jb=%d, want both 300", ja.StartTime, jb.StartTime)
	}
	// ja was ready at t=0 with an unsubmitted mate: it must have yielded.
	if ja.YieldCount == 0 {
		t.Fatal("ja never yielded")
	}
	// At t=300 jb becomes ready, sees ja queuing, and TryStartMate
	// succeeds: nodes were free because ja yielded rather than held.
	if ja.HoldCount != 0 {
		t.Fatalf("ja held %d times under yield scheme", ja.HoldCount)
	}
	if ja.HeldNodeSeconds != 0 {
		t.Fatalf("yield scheme lost %d node-seconds", ja.HeldNodeSeconds)
	}
}

func TestYieldFreesNodesForOtherJobs(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 100, 0, 600, 600) // paired, whole machine, mate far away
	jb := job.New(1, 10, 10000, 600, 600)
	pairJobs(ja, jb)
	other := job.New(2, 100, 5, 600, 600) // regular job, whole machine
	submitAll(t, a, ja, other)
	submitAll(t, b, jb)
	eng.Run()
	// other must have run in the slot ja declined.
	if other.StartTime != 5 {
		t.Fatalf("other start = %d, want 5 (yield freed the machine)", other.StartTime)
	}
	if ja.StartTime != jb.StartTime {
		t.Fatalf("pair still co-starts: %d vs %d", ja.StartTime, jb.StartTime)
	}
}

func TestHoldBlocksOtherJobs(t *testing.T) {
	// Contrast with the yield test: a holding job keeps the nodes busy, so
	// the regular job must wait until the pair starts and finishes.
	cfg := cosched.DefaultConfig(cosched.Hold)
	cfg.ReleaseInterval = 0 // keep the hold pinned for the whole gap
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 100, 0, 600, 600)
	jb := job.New(1, 10, 1000, 600, 600)
	pairJobs(ja, jb)
	other := job.New(2, 100, 5, 600, 600)
	submitAll(t, a, ja, other)
	submitAll(t, b, jb)
	eng.Run()
	if ja.StartTime != 1000 || jb.StartTime != 1000 {
		t.Fatalf("pair start = %d/%d, want 1000", ja.StartTime, jb.StartTime)
	}
	if other.StartTime != 1600 {
		t.Fatalf("other start = %d, want 1600 (after the held pair ran)", other.StartTime)
	}
}

func TestMateAlreadyHoldingStartsBoth(t *testing.T) {
	// B ready first and holds; when A's job is scheduled it sees
	// StatusHolding and releases both (Algorithm 1 lines 6–8).
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 500, 600, 600)
	jb := job.New(1, 10, 0, 600, 600)
	pairJobs(ja, jb)
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.Run()
	if jb.HoldCount != 1 {
		t.Fatalf("jb holds = %d, want 1", jb.HoldCount)
	}
	if ja.StartTime != 500 || jb.StartTime != 500 {
		t.Fatalf("starts = %d/%d, want 500/500", ja.StartTime, jb.StartTime)
	}
}

func TestUnknownMateStartsNormally(t *testing.T) {
	// Mate references a job B never heard of → GetMateJob false → start.
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "B", Job: 999}}
	submitAll(t, a, ja)
	eng.Run()
	if ja.StartTime != 0 || ja.State != job.Completed {
		t.Fatalf("unknown mate: start=%d state=%s, want 0/completed", ja.StartTime, ja.State)
	}
}

func TestNoPeerStartsNormally(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "nonexistent", Job: 1}}
	submitAll(t, a, ja)
	eng.Run()
	if ja.State != job.Completed {
		t.Fatalf("state = %s, want completed", ja.State)
	}
}

// failingPeer simulates a crashed remote domain: every call errors.
type failingPeer struct{}

func (failingPeer) PeerName() string                { return "down" }
func (failingPeer) GetMateJob(job.ID) (bool, error) { return false, errors.New("down") }
func (failingPeer) GetMateStatus(job.ID) (cosched.MateStatus, error) {
	return cosched.StatusUnknown, errors.New("down")
}
func (failingPeer) CanStartMate(job.ID) (bool, error) { return false, errors.New("down") }
func (failingPeer) TryStartMate(job.ID) (bool, error) { return false, errors.New("down") }
func (failingPeer) StartMate(job.ID) error            { return errors.New("down") }

func TestDeadPeerFaultTolerance(t *testing.T) {
	// §IV-C: "a job will not wait forever when the remote machine ... is
	// down". The ready job must start immediately.
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng := sim.NewEngine()
	a := New(eng, Options{Name: "A", Pool: cluster.New("A", 100), Cosched: cfg})
	a.AddPeer("B", failingPeer{})
	ja := job.New(1, 10, 0, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	submitAll(t, a, ja)
	eng.Run()
	if ja.StartTime != 0 || ja.State != job.Completed {
		t.Fatalf("dead peer: start=%d state=%s, want immediate start", ja.StartTime, ja.State)
	}
}

func TestMateCompletedStartsNormally(t *testing.T) {
	// The mate already ran to completion (fault-tolerance fallback):
	// the local job starts without coordination.
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 5000, 600, 600)
	jb := job.New(1, 10, 0, 600, 600)
	// Pair asymmetrically: only ja knows about jb, so jb runs normally.
	ja.Mates = []job.MateRef{{Domain: "B", Job: jb.ID}}
	submitAll(t, a, ja)
	submitAll(t, b, jb)
	eng.Run()
	if jb.EndTime != 600 {
		t.Fatalf("jb end = %d, want 600", jb.EndTime)
	}
	if ja.StartTime != 5000 {
		t.Fatalf("ja start = %d, want 5000 (mate completed)", ja.StartTime)
	}
}

func TestMaxHeldFractionForcesYield(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	cfg.MaxHeldFraction = 0.5
	cfg.ReleaseInterval = 0 // keep ja1's hold pinned so the cap stays binding
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	// Two paired jobs on A whose mates are far in the future; the first
	// (40 nodes) may hold, the second (40 nodes) would push held to 80%
	// and must yield instead.
	ja1 := job.New(1, 40, 0, 600, 600)
	ja2 := job.New(2, 40, 0, 600, 600)
	jb1 := job.New(1, 10, 50000, 600, 600)
	jb2 := job.New(2, 10, 50000, 600, 600)
	pairJobs(ja1, jb1)
	pairJobs(ja2, jb2)
	submitAll(t, a, ja1, ja2)
	submitAll(t, b, jb1, jb2)
	eng.Run()
	if ja1.HoldCount == 0 {
		t.Fatal("ja1 never held")
	}
	if ja2.HoldCount != 0 {
		t.Fatalf("ja2 held %d times despite the 50%% cap", ja2.HoldCount)
	}
	if ja2.YieldCount == 0 {
		t.Fatal("ja2 never yielded")
	}
}

func TestMaxYieldsEscalatesToHold(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	cfg.MaxYields = 2
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 7200, 600, 600) // two hours away
	pairJobs(ja, jb)
	// Churn jobs keep triggering scheduling iterations so ja re-yields.
	churn := []*job.Job{
		job.New(10, 90, 60, 300, 300),
		job.New(11, 90, 600, 300, 300),
		job.New(12, 90, 1200, 300, 300),
	}
	submitAll(t, a, append([]*job.Job{ja}, churn...)...)
	submitAll(t, b, jb)
	eng.Run()
	if ja.YieldCount < 2 {
		t.Fatalf("ja yields = %d, want ≥ 2", ja.YieldCount)
	}
	if ja.HoldCount == 0 {
		t.Fatal("ja never escalated to hold after MaxYields")
	}
	if ja.StartTime != jb.StartTime {
		t.Fatalf("co-start violated: %d vs %d", ja.StartTime, jb.StartTime)
	}
}

// TestMaxYieldsKeepsBackfillYielding: the max-yield escalation turns a
// yield into a hold only for a hold-safe job. A job EASY admitted for its
// bounded walltime ahead of a blocked job's reservation may start but not
// hold, however often it has yielded.
func TestMaxYieldsKeepsBackfillYielding(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Yield)
	cfg.MaxYields = 1
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	filler := job.New(10, 60, 0, 1000, 1000) // runs until the reservation at 1000
	head := job.New(11, 80, 1, 600, 600)     // blocked: 40 free, reserved at 1000
	ja := job.New(1, 30, 2, 500, 500)        // backfilled: ends by 1000 but outgrows the 20 spare nodes
	jb := job.New(1, 10, 5000, 600, 600)
	nudge := job.New(12, 5, 50, 60, 60) // its arrival re-plans ja after one yield
	pairJobs(ja, jb)
	submitAll(t, a, filler, head, ja, nudge)
	submitAll(t, b, jb)
	eng.RunUntil(100)
	if ja.State != job.Queued || ja.HoldCount != 0 || ja.YieldCount != 2 {
		t.Fatalf("ja state=%s holds=%d yields=%d, want queued after two yields and no hold",
			ja.State, ja.HoldCount, ja.YieldCount)
	}
	eng.Run()
	if head.StartTime != 1000 {
		t.Fatalf("head start = %d, want 1000: its reservation was trampled", head.StartTime)
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	eng, a, _ := pairDomains(t, 10, 10, cosched.Config{}, cosched.Config{})
	_ = eng
	j1 := job.New(1, 1, 0, 10, 10)
	j2 := job.New(1, 2, 0, 10, 10) // same ID, different job
	if err := a.Expect(j1); err != nil {
		t.Fatal(err)
	}
	if err := a.Expect(j2); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("err = %v, want ErrDuplicateJob", err)
	}
	if err := a.Submit(j2); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("submit err = %v, want ErrDuplicateJob", err)
	}
}

// TestJobWiderThanPoolIsRefused: a job asking for more nodes than the pool
// has is refused wherever it would come to wait — Expect, Submit and
// RestoreJob of a queued or unsubmitted job — and a narrower job behind it
// starts. Were the wide job let in on a partitioned pool, whose charges are
// clamped to its total, the planner would plan it once the pool went idle,
// Iterate would skip it, and the narrow job would queue for ever.
func TestJobWiderThanPoolIsRefused(t *testing.T) {
	paths := []struct {
		name string
		in   func(m *Manager, j *job.Job) error
	}{
		{"submit", (*Manager).Submit},
		{"expect", (*Manager).Expect},
		{"restore_queued", func(m *Manager, j *job.Job) error {
			j.State = job.Queued
			return m.RestoreJob(j)
		}},
		{"restore_unsubmitted", (*Manager).RestoreJob},
	}
	for _, pol := range []policy.Policy{policy.FCFS{}, policy.WFP{}} {
		for _, p := range paths {
			path, in := p.name, p.in
			t.Run(pol.Name()+"/"+path, func(t *testing.T) {
				eng := sim.NewEngine()
				m := New(eng, Options{Name: "A", Pool: cluster.NewPartitioned("A", 128, 16),
					Policy: pol, Backfilling: true})
				wide := job.New(1, 200, 0, 600, 600)
				err := in(m, wide)
				if !errors.Is(err, ErrTooWide) {
					t.Fatalf("%s of a 200-node job on a 128-node pool: err = %v, want ErrTooWide", path, err)
				}
				for _, want := range []string{"job 1", "200", "128"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
				if _, known := m.Job(1); known || m.Counts().Queued != 0 {
					t.Fatalf("the refused job is registered (%v) or queued (%d)", known, m.Counts().Queued)
				}
				narrow := job.New(2, 10, 0, 600, 600)
				if err := m.Submit(narrow); err != nil {
					t.Fatal(err)
				}
				eng.RunUntil(1)
				if narrow.State != job.Running {
					t.Fatalf("the 10-node job behind the refused one is %s, want running", narrow.State)
				}
			})
		}
	}
}

func TestPeerStatusQueries(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	j := job.New(7, 10, 100, 600, 600)
	if err := a.Expect(j); err != nil {
		t.Fatal(err)
	}
	if st, _ := a.GetMateStatus(7); st != cosched.StatusUnsubmitted {
		t.Fatalf("status = %s, want unsubmitted", st)
	}
	if known, _ := a.GetMateJob(7); !known {
		t.Fatal("expected job not known")
	}
	if known, _ := a.GetMateJob(99); known {
		t.Fatal("unknown job reported known")
	}
	if st, _ := a.GetMateStatus(99); st != cosched.StatusUnknown {
		t.Fatalf("status = %s, want unknown", st)
	}
	// Drive to completion and check terminal status.
	if _, err := eng.At(100, sim.PrioritySubmit, func(sim.Time) { _ = a.Submit(j) }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if st, _ := a.GetMateStatus(7); st != cosched.StatusCompleted {
		t.Fatalf("status = %s, want completed", st)
	}
}

func TestTryStartMateInsufficientNodes(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	blocker := job.New(1, 100, 0, 10000, 10000)
	waiting := job.New(2, 50, 5, 600, 600)
	submitAll(t, a, blocker, waiting)
	eng.RunUntil(100)
	if ok, _ := a.CanStartMate(2); ok {
		t.Fatal("CanStartMate true with a full machine")
	}
	if ok, _ := a.TryStartMate(2); ok {
		t.Fatal("TryStartMate succeeded with a full machine")
	}
	if waiting.State != job.Queued {
		t.Fatalf("state = %s, want queued", waiting.State)
	}
}

func TestStartMateWrongState(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	_, a, _ := pairDomains(t, 100, 100, cfg, cfg)
	j := job.New(1, 10, 0, 600, 600)
	if err := a.Expect(j); err != nil {
		t.Fatal(err)
	}
	if err := a.StartMate(1); !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
	if err := a.StartMate(42); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestStartAnswerNamesItsInstant: "started" acknowledges a start at the
// proposed instant only. A job running since 10 is not started at 15, so a
// try for 15 answers false and a start_mate for 17 errs naming both
// instants; a try for 10 acknowledges the start it names. None of them
// moves the job's start.
func TestStartAnswerNamesItsInstant(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j := job.New(1, 10, 10, 600, 600)
	submitAll(t, a, j)
	eng.RunUntil(20)
	if j.State != job.Running || j.StartTime != 10 {
		t.Fatalf("job is %s since %d, want running since 10", j.State, j.StartTime)
	}
	if ok, err := a.TryStartMateAt(1, 15); ok || err != nil {
		t.Fatalf("TryStartMateAt(1, 15) = %v, %v; want false, nil", ok, err)
	}
	err := a.StartMateAt(1, 17)
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "10") || !strings.Contains(err.Error(), "17") {
		t.Fatalf("StartMateAt(1, 17) = %v, want ErrBadState naming 10 and 17", err)
	}
	if ok, err := a.TryStartMateAt(1, 10); !ok || err != nil {
		t.Fatalf("TryStartMateAt(1, 10) = %v, %v; want true, nil", ok, err)
	}
	if j.StartTime != 10 {
		t.Fatalf("start moved to %d", j.StartTime)
	}
}

func TestNWayGroupCoStart(t *testing.T) {
	// Three domains; a 3-way group must start simultaneously (the
	// paper's future-work extension).
	eng := sim.NewEngine()
	cfg := cosched.DefaultConfig(cosched.Hold)
	names := []string{"A", "B", "C"}
	mgrs := make(map[string]*Manager, 3)
	for _, n := range names {
		mgrs[n] = New(eng, Options{Name: n, Pool: cluster.New(n, 100), Cosched: cfg})
	}
	for _, x := range names {
		for _, y := range names {
			if x != y {
				mgrs[x].AddPeer(y, mgrs[y])
			}
		}
	}
	jobs := map[string]*job.Job{
		"A": job.New(1, 10, 0, 600, 600),
		"B": job.New(1, 10, 400, 600, 600),
		"C": job.New(1, 10, 900, 600, 600),
	}
	for _, x := range names {
		for _, y := range names {
			if x != y {
				jobs[x].Mates = append(jobs[x].Mates, job.MateRef{Domain: y, Job: jobs[y].ID})
			}
		}
	}
	for _, n := range names {
		if err := mgrs[n].SubmitAt(jobs[n]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for _, n := range names {
		if jobs[n].State != job.Completed {
			t.Fatalf("%s job state = %s", n, jobs[n].State)
		}
	}
	if jobs["A"].StartTime != 900 || jobs["B"].StartTime != 900 || jobs["C"].StartTime != 900 {
		t.Fatalf("starts = %d/%d/%d, want all 900",
			jobs["A"].StartTime, jobs["B"].StartTime, jobs["C"].StartTime)
	}
}

func TestIterationsCounted(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	submitAll(t, a, job.New(1, 10, 0, 600, 600))
	eng.Run()
	if a.Iterations() == 0 {
		t.Fatal("no scheduling iterations recorded")
	}
}

func TestHoldBudgetRefusesExcessHolds(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	cfg.ReleaseInterval = 0 // keep holds pinned so the budget stays binding
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	a.SetHoldBudget(1) // degraded mode: at most one concurrent hold
	// Three small paired jobs on A whose mates are far away: all three
	// would hold under the scheme, but only the first fits the budget.
	var jas []*job.Job
	for i := job.ID(1); i <= 3; i++ {
		ja := job.New(i, 10, 0, 600, 600)
		jb := job.New(i, 10, 50000, 600, 600)
		pairJobs(ja, jb)
		submitAll(t, a, ja)
		submitAll(t, b, jb)
		jas = append(jas, ja)
	}
	eng.Run()
	if jas[0].HoldCount == 0 {
		t.Fatal("first job never held: the budget must allow holds up to the cap")
	}
	for _, ja := range jas[1:] {
		if ja.HoldCount != 0 {
			t.Fatalf("job %d held despite the budget of 1", ja.ID)
		}
		if ja.YieldCount == 0 {
			t.Fatalf("job %d never yielded; refused holds must degrade to yields", ja.ID)
		}
	}
	if a.Counts().HoldsRefused == 0 {
		t.Fatal("HoldsRefused = 0, want the budget's refusals counted")
	}
	if b.Counts().HoldsRefused != 0 {
		t.Fatalf("B refused %d holds with no budget set", b.Counts().HoldsRefused)
	}
}

// numberedTrace returns n one-node jobs numbered 1..n, one submitted per
// second, the numbering workload.Generate gives a trace.
func numberedTrace(n int) []*job.Job {
	tr := make([]*job.Job, n)
	for i := range tr {
		tr[i] = job.New(job.ID(i+1), 1, sim.Time(i), sim.Minute, sim.Minute)
	}
	return tr
}

// TestRegistrationAfterSubmitTraceLeavesTheTraceAlone: SubmitTrace adopts
// its slice as the registry (and, for a trace numbered 1..n, as the ID
// index's dense part), so a later Expect or Submit must append to a copy:
// the caller's slice keeps its elements, length and capacity, and every
// job stays findable by ID and listed by EachJob in registration order.
func TestRegistrationAfterSubmitTraceLeavesTheTraceAlone(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace func() []*job.Job
	}{
		{"numbered", func() []*job.Job { return numberedTrace(8) }},
		{"sparse", func() []*job.Job {
			return []*job.Job{job.New(5, 1, 0, sim.Minute, sim.Minute), job.New(9, 1, 1, sim.Minute, sim.Minute)}
		}},
	} {
		for _, register := range []string{"expect", "submit"} {
			eng, a, _ := pairDomains(t, 16, 16, cosched.Config{}, cosched.Config{})
			tr := append(make([]*job.Job, 0, 16), tc.trace()...) // spare capacity to write into
			want := append([]*job.Job(nil), tr...)
			wantLen, wantCap := len(tr), cap(tr)
			if err := a.SubmitTrace(tr); err != nil {
				t.Fatal(err)
			}
			extra := []*job.Job{job.New(9, 1, 0, sim.Minute, sim.Minute), job.New(100, 1, 0, sim.Minute, sim.Minute), job.New(-3, 1, 0, sim.Minute, sim.Minute)}
			if tc.name == "sparse" {
				extra[0] = job.New(1, 1, 0, sim.Minute, sim.Minute)
			}
			for _, j := range extra {
				var err error
				if register == "expect" {
					err = a.Expect(j)
				} else {
					err = a.Submit(j)
				}
				if err != nil {
					t.Fatalf("%s/%s job %d: %v", tc.name, register, j.ID, err)
				}
			}
			full := tr[:cap(tr)]
			if len(tr) != wantLen || cap(tr) != wantCap {
				t.Fatalf("%s/%s: trace len %d cap %d, want %d %d", tc.name, register, len(tr), cap(tr), wantLen, wantCap)
			}
			for i := range full {
				if i < wantLen && full[i] != want[i] || i >= wantLen && full[i] != nil {
					t.Fatalf("%s/%s: trace slot %d holds %v after a later registration", tc.name, register, i, full[i])
				}
			}
			var order []*job.Job
			a.EachJob(func(j *job.Job) { order = append(order, j) })
			if all := append(want, extra...); !slices.Equal(order, all) {
				t.Fatalf("%s/%s: EachJob visits %v, want %v", tc.name, register, order, all)
			}
			for _, j := range order {
				if got, ok := a.Job(j.ID); !ok || got != j {
					t.Fatalf("%s/%s: Job(%d) = %v, %v", tc.name, register, j.ID, got, ok)
				}
			}
			eng.Run()
			submitted := len(order) // an expected job is never submitted
			if register == "expect" {
				submitted = wantLen
			}
			if c := a.Counts(); c.Completed != submitted {
				t.Fatalf("%s/%s: %d jobs completed, want %d", tc.name, register, c.Completed, submitted)
			}
		}
	}
}

// TestSubmitTraceRefusesAManagerThatHoldsJobs: the trace becomes the
// registry, so SubmitTrace takes only a manager with no job registered,
// by Expect or by an earlier trace, and a refusal registers nothing.
func TestSubmitTraceRefusesAManagerThatHoldsJobs(t *testing.T) {
	for _, first := range []string{"expect", "trace"} {
		_, a, _ := pairDomains(t, 16, 16, cosched.Config{}, cosched.Config{})
		held := job.New(1, 1, 0, sim.Minute, sim.Minute)
		var err error
		if first == "expect" {
			err = a.Expect(held)
		} else {
			err = a.SubmitTrace([]*job.Job{held})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SubmitTrace(numberedTrace(4)[1:]); err == nil {
			t.Fatalf("%s first: SubmitTrace accepted a manager that holds jobs", first)
		}
		var order []*job.Job
		a.EachJob(func(j *job.Job) { order = append(order, j) })
		if !slices.Equal(order, []*job.Job{held}) {
			t.Fatalf("%s first: registry %v after a refused SubmitTrace, want only job 1", first, order)
		}
	}
}

// TestSubmitTraceWithoutAllocatingPerJob pins the registration of a trace
// numbered 1..n at a constant number of bytes: the manager adopts the
// trace slice as its registry and its ID index, so registering 100 k jobs
// allocates what registering 1 k does (a copy of the pointers alone is
// 8 B per job, 792 KB more at 100 k).
func TestSubmitTraceWithoutAllocatingPerJob(t *testing.T) {
	bytesFor := func(n int) uint64 {
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			tr := numberedTrace(n)
			m := New(sim.NewEngine(), Options{Name: "A", Pool: cluster.New("A", 64)})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := m.SubmitTrace(tr); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := bytesFor(1_000), bytesFor(100_000)
	if large > small+1<<10 {
		t.Fatalf("SubmitTrace allocates %d B for 100 k jobs, %d B for 1 k: it grows with the trace", large, small)
	}
}
