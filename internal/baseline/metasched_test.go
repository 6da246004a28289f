package baseline

import (
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

func TestSingleJobRuns(t *testing.T) {
	j := job.New(1, 10, 100, 600, 600)
	res, err := Metaschedule([]DomainConfig{{Name: "a", Nodes: 64, Trace: []*job.Job{j}}})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != job.Completed || j.StartTime != 100 {
		t.Fatalf("job: %s start=%d", j.State, j.StartTime)
	}
	if res.StuckJobs != 0 {
		t.Fatalf("stuck = %d", res.StuckJobs)
	}
}

func TestHetJobWaitsForBothMachines(t *testing.T) {
	// The pair needs machine B, which is busy until t=1000: the portal
	// starts both members together at 1000 even though A was free at 0.
	ja := job.New(1, 10, 5, 600, 600)
	jb := job.New(1, 8, 5, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "b", Job: 1}}
	jb.Mates = []job.MateRef{{Domain: "a", Job: 1}}
	blocker := job.New(2, 10, 0, 1000, 1000) // fills B before the pair arrives
	res, err := Metaschedule([]DomainConfig{
		{Name: "a", Nodes: 64, Trace: []*job.Job{ja}},
		{Name: "b", Nodes: 10, Trace: []*job.Job{jb, blocker}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckJobs != 0 || res.CoStartViolations != 0 {
		t.Fatalf("stuck=%d viol=%d", res.StuckJobs, res.CoStartViolations)
	}
	if ja.StartTime != jb.StartTime || ja.StartTime != 1000 {
		t.Fatalf("het-job starts: %d / %d, want 1000", ja.StartTime, jb.StartTime)
	}
}

func TestPortalSeesRequestAtLastSubmission(t *testing.T) {
	// Members submitted 10 minutes apart: the request exists only once
	// both halves have arrived at the portal.
	ja := job.New(1, 4, 0, 300, 300)
	jb := job.New(1, 4, 600, 300, 300)
	ja.Mates = []job.MateRef{{Domain: "b", Job: 1}}
	jb.Mates = []job.MateRef{{Domain: "a", Job: 1}}
	if _, err := Metaschedule([]DomainConfig{
		{Name: "a", Nodes: 8, Trace: []*job.Job{ja}},
		{Name: "b", Nodes: 8, Trace: []*job.Job{jb}},
	}); err != nil {
		t.Fatal(err)
	}
	if ja.StartTime != 600 || jb.StartTime != 600 {
		t.Fatalf("starts = %d/%d, want 600 (request formed at the later submission)", ja.StartTime, jb.StartTime)
	}
}

func TestMetaschedulerWorkloadScale(t *testing.T) {
	spec := workload.EurekaSpec(15)
	spec.Jobs = 300
	a, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 16
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.PairNearest(workload.NewRNG(17), a, b, "a", "b", 80, 2*sim.Hour)
	res, err := Metaschedule([]DomainConfig{
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
}
