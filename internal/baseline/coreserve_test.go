package baseline

import (
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

func TestSingleJobReservedImmediately(t *testing.T) {
	j := job.New(1, 50, 10, 600, 900)
	res, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: []*job.Job{j}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != job.Completed || j.StartTime != 10 || j.EndTime != 610 {
		t.Fatalf("job: %s start=%d end=%d", j.State, j.StartTime, j.EndTime)
	}
	if res.StuckJobs != 0 {
		t.Fatalf("stuck = %d", res.StuckJobs)
	}
}

func TestReservationsQueueByWalltime(t *testing.T) {
	// Conservative semantics: the second job is planned after the FIRST
	// job's WALLTIME window even though the runtime is shorter... until
	// early completion truncates the reservation — but planning happened
	// at submit, so the reservation stands.
	j1 := job.New(1, 100, 0, 600, 1000) // walltime 1000, runs 600
	j2 := job.New(2, 100, 5, 600, 1000)
	if _, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: []*job.Job{j1, j2}},
	}); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime != 1000 {
		t.Fatalf("j2 start = %d, want 1000 (walltime-fragmented)", j2.StartTime)
	}
	// Contrast: the queue-based resource manager would have started j2 at
	// 600 — this gap is exactly the fragmentation cost the paper cites.
}

func TestEarlyCompletionFreesTailForLaterArrivals(t *testing.T) {
	j1 := job.New(1, 100, 0, 600, 10000) // huge overestimate
	j2 := job.New(2, 100, 700, 100, 200) // arrives after j1 completed
	if _, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: []*job.Job{j1, j2}},
	}); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime != 700 {
		t.Fatalf("j2 start = %d, want 700 (truncated reservation freed the machine)", j2.StartTime)
	}
}

func TestPairCoReserved(t *testing.T) {
	ja := job.New(1, 60, 0, 600, 900)
	jb := job.New(1, 8, 120, 600, 900)
	ja.Mates = []job.MateRef{{Domain: "b", Job: 1}}
	jb.Mates = []job.MateRef{{Domain: "a", Job: 1}}
	// Blockers force different earliest starts on the two machines.
	blockA := job.New(2, 100, 0, 300, 300)
	blockB := job.New(2, 10, 0, 1000, 1000)
	res, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: []*job.Job{ja, blockA}},
		{Name: "b", Nodes: 10, Trace: []*job.Job{jb, blockB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("stuck=%d viol=%d", res.StuckJobs, res.CoStartViolations)
	}
	if ja.StartTime != jb.StartTime {
		t.Fatalf("co-reservation mismatch: %d vs %d", ja.StartTime, jb.StartTime)
	}
	// Common start must be ≥ both blockers' holds: A free at 300, B free
	// at 1000 → common start 1000.
	if ja.StartTime != 1000 {
		t.Fatalf("pair start = %d, want 1000", ja.StartTime)
	}
	if res.PairLatency.Count != 1 {
		t.Fatalf("pair latency count = %d", res.PairLatency.Count)
	}
}

func TestPendingHalfCountsStuck(t *testing.T) {
	ja := job.New(1, 10, 0, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "b", Job: 99}} // mate never arrives
	res, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: []*job.Job{ja}},
		{Name: "b", Nodes: 100, Trace: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckJobs != 1 {
		t.Fatalf("stuck = %d, want 1 (unmatched pair half)", res.StuckJobs)
	}
}

func TestCoReservationWorkloadScale(t *testing.T) {
	// A realistic paired workload runs to completion with zero co-start
	// violations under co-reservation.
	spec := workload.EurekaSpec(5)
	spec.Jobs = 300
	a, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 6
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.PairNearest(workload.NewRNG(7), a, b, "a", "b", 60, 2*sim.Hour)
	res, err := CoReserve([]DomainConfig{
		{Name: "a", Nodes: 100, Trace: a},
		{Name: "b", Nodes: 100, Trace: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckJobs != 0 {
		t.Fatalf("stuck = %d", res.StuckJobs)
	}
	if res.CoStartViolations != 0 {
		t.Fatalf("violations = %d", res.CoStartViolations)
	}
	if res.Reports["a"].Completed != 300 || res.Reports["b"].Completed != 300 {
		t.Fatalf("completed: %d / %d", res.Reports["a"].Completed, res.Reports["b"].Completed)
	}
}
