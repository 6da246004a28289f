package resmgr

import (
	"errors"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

func TestCancelQueuedJob(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	blocker := job.New(1, 100, 0, 1000, 1000)
	waiting := job.New(2, 100, 5, 600, 600)
	submitAll(t, a, blocker, waiting)
	eng.RunUntil(100)
	if err := a.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if waiting.State != job.Cancelled {
		t.Fatalf("state = %s", waiting.State)
	}
	if a.Counts().Queued != 0 {
		t.Fatalf("queue length = %d after cancel", a.Counts().Queued)
	}
	eng.Run()
	if waiting.State != job.Cancelled || waiting.StartTime != 0 {
		t.Fatalf("cancelled job ran: %+v", waiting)
	}
	if a.CancelledCount() != 1 {
		t.Fatalf("cancelled count = %d", a.CancelledCount())
	}
}

func TestCancelRunningJobFreesNodesImmediately(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	long := job.New(1, 100, 0, 100000, 100000)
	next := job.New(2, 100, 5, 600, 600)
	submitAll(t, a, long, next)
	eng.RunUntil(1000)
	if long.State != job.Running {
		t.Fatalf("long state = %s", long.State)
	}
	if err := a.Cancel(1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// The killed job's end event must not fire; the waiter takes over at
	// the cancellation instant.
	if long.State != job.Cancelled || long.EndTime != 1000 {
		t.Fatalf("long: state=%s end=%d", long.State, long.EndTime)
	}
	if next.StartTime != 1000 {
		t.Fatalf("next start = %d, want 1000 (freed by cancel)", next.StartTime)
	}
	if a.Pool().Free() != 100 {
		t.Fatalf("pool not drained: %s", a.Pool())
	}
}

func TestCancelHoldingJobReleasesNodesAndUnblocksMate(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	eng, a, b := pairDomains(t, 100, 100, cfg, cfg)
	ja := job.New(1, 100, 0, 600, 600)
	jb := job.New(1, 10, 5000, 600, 600)
	pairJobs(ja, jb)
	other := job.New(2, 100, 10, 600, 600)
	submitAll(t, a, ja, other)
	submitAll(t, b, jb)
	eng.RunUntil(100)
	if ja.State != job.Holding {
		t.Fatalf("ja state = %s, want holding", ja.State)
	}
	if err := a.Cancel(1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ja.State != job.Cancelled {
		t.Fatalf("ja state = %s", ja.State)
	}
	if ja.HeldNodeSeconds != 100*100 {
		t.Fatalf("held accounting = %d, want 10000", ja.HeldNodeSeconds)
	}
	// The freed nodes go to the regular job at the cancel instant.
	if other.StartTime != 100 {
		t.Fatalf("other start = %d, want 100", other.StartTime)
	}
	// The remote mate, whose partner is cancelled, starts normally when
	// scheduled (status unknown → fault-tolerance path).
	if jb.State != job.Completed || jb.StartTime != 5000 {
		t.Fatalf("jb: %s start=%d, want normal start at 5000", jb.State, jb.StartTime)
	}
}

func TestCancelExpectedJobSkipsReplay(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j := job.New(1, 10, 500, 600, 600)
	if err := a.SubmitAt(j); err != nil {
		t.Fatal(err)
	}
	if err := a.Cancel(1); err != nil {
		t.Fatal(err)
	}
	eng.Run() // the pending submit event must no-op, not panic
	if j.State != job.Cancelled {
		t.Fatalf("state = %s", j.State)
	}
}

func TestCancelErrors(t *testing.T) {
	eng, a, _ := pairDomains(t, 100, 100, cosched.Config{}, cosched.Config{})
	j := job.New(1, 10, 0, 60, 60)
	submitAll(t, a, j)
	eng.Run()
	if err := a.Cancel(1); !errors.Is(err, ErrBadState) {
		t.Fatalf("cancel completed job: err = %v, want ErrBadState", err)
	}
	if err := a.Cancel(99); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown job: err = %v, want ErrUnknownJob", err)
	}
}

func TestCancelDuringSimulatedTime(t *testing.T) {
	// Schedule a cancellation as a simulation event, mid-run.
	eng, a, _ := pairDomains(t, 64, 64, cosched.Config{}, cosched.Config{})
	j := job.New(1, 64, 0, 10000, 10000)
	submitAll(t, a, j)
	if _, err := eng.At(2500, sim.PriorityDefault, func(sim.Time) {
		if err := a.Cancel(1); err != nil {
			t.Errorf("cancel: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != job.Cancelled || j.EndTime != 2500 {
		t.Fatalf("job: %s end=%d", j.State, j.EndTime)
	}
}
