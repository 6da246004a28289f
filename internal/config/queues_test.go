package config

import (
	"strings"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

func mkjob(id job.ID, nodes int, wall sim.Duration) *job.Job {
	return job.New(id, nodes, 0, wall, wall)
}

// TestQueuesRouteByConstraints routes jobs through Intrepid-like queues
// and reads each job's queue back from its score factor.
func TestQueuesRouteByConstraints(t *testing.T) {
	qs := []QueueSpec{
		{Name: "prod-devel", MaxNodes: 2048, MaxWallMins: 60, Priority: 1.5},
		{Name: "prod-long", MinNodes: 512, Priority: 0.8},
		{Name: "prod", Default: true, Priority: 1.25},
	}
	tr := []*job.Job{
		mkjob(1, 512, 30*sim.Minute),  // small & short: prod-devel
		mkjob(2, 4096, 30*sim.Minute), // too big for devel: prod-long
		mkjob(3, 512, 6*sim.Hour),     // too long for devel: prod-long
		mkjob(4, 16, 6*sim.Hour),      // below prod-long's min: default
	}
	factors := []float64{1.5, 0.8, 0.8, 1.25}
	base := policy.WFP{}
	p, err := routeQueues(qs, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(30 * sim.Minute)
	for i, j := range tr {
		if got, want := p.Score(j, now), factors[i]*base.Score(j, now); got != want {
			t.Errorf("job %d score = %g, want %g", j.ID, got, want)
		}
	}
}

// TestQueuePolicyScalesScores: a queue's priority multiplies the base
// score; priority 0 and unrouted jobs (job 3) leave it unscaled.
func TestQueuePolicyScalesScores(t *testing.T) {
	tr, base := []*job.Job{mkjob(1, 8, sim.Hour), mkjob(2, 64, sim.Hour)}, policy.WFP{}
	p, err := routeQueues([]QueueSpec{{Name: "fast", MaxNodes: 8, Priority: 2}, {Name: "plain", Default: true}}, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(30 * sim.Minute)
	for i, j := range append(tr, mkjob(3, 8, sim.Hour)) {
		if got, want := p.Score(j, now), []float64{2, 1, 1}[i]*base.Score(j, now); got != want {
			t.Errorf("job %d score = %g, want %g", j.ID, got, want)
		}
	}
	if !strings.HasSuffix(p.Name(), "+queues") {
		t.Fatalf("policy name = %q", p.Name())
	}
}

// TestQueuesRejectWhenNothingAdmits: a job that fits no queue, default
// included, is an error rather than silently unscaled.
func TestQueuesRejectWhenNothingAdmits(t *testing.T) {
	big := []*job.Job{mkjob(1, 64, sim.Hour)}
	for _, qs := range [][]QueueSpec{
		{{Name: "tiny", MaxNodes: 8, Priority: 1}},
		{{Name: "tiny", MaxNodes: 8, Default: true}},
	} {
		if _, err := routeQueues(qs, big, policy.WFP{}); err == nil {
			t.Errorf("%+v routed a 64-node job", qs)
		}
	}
}

func TestQueueValidation(t *testing.T) {
	bad := map[string][]QueueSpec{
		"queue without name": {{Default: true}},
		"duplicate queue":    {{Name: "a"}, {Name: "a", Default: true}},
		"two default queues": {{Name: "a", Default: true}, {Name: "b", Default: true}},
		"bad node bounds":    {{Name: "a", MinNodes: 10, MaxNodes: 5, Default: true}},
		"negative walltime":  {{Name: "a", MaxWallMins: -1, Default: true}},
		"negative priority":  {{Name: "a", Priority: -1, Default: true}},
	}
	for name, qs := range bad {
		if _, err := routeQueues(qs, nil, policy.WFP{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestQueuePolicyForwardsUsage(t *testing.T) {
	j := mkjob(1, 10, sim.Hour)
	j.User = 5
	fs := policy.NewFairShare(policy.WFP{}, sim.Day)
	p, err := routeQueues([]QueueSpec{{Name: "q", Default: true, Priority: 1}}, []*job.Job{j}, fs)
	if err != nil {
		t.Fatal(err)
	}
	uo, ok := p.(policy.UsageObserver)
	if !ok {
		t.Fatal("queue policy does not forward usage observations")
	}
	uo.ObserveCompletion(j, 0)
	if fs.Usage(5, 0) == 0 {
		t.Fatal("usage not forwarded to fair-share base")
	}
}

// TestQueuesDriveSchedulingPriority: two identical jobs queue behind a
// blocker; the one in the favored queue starts first although it has the
// higher ID and was submitted second.
func TestQueuesDriveSchedulingPriority(t *testing.T) {
	blocker := mkjob(3, 64, 100)
	std := mkjob(1, 128, sim.Hour) // routed by size, resized below
	vip := mkjob(2, 64, sim.Hour)
	p, err := routeQueues([]QueueSpec{
		{Name: "vip", MaxNodes: 64, Priority: 10},
		{Name: "std", Default: true, Priority: 1},
	}, []*job.Job{blocker, std, vip}, policy.WFP{})
	if err != nil {
		t.Fatal(err)
	}
	std.Nodes = 64
	std.SubmitTime, vip.SubmitTime = 1, 1
	eng := sim.NewEngine()
	m := resmgr.New(eng, resmgr.Options{Name: "q", Pool: cluster.New("q", 64), Policy: p})
	for _, j := range []*job.Job{blocker, std, vip} {
		if err := m.SubmitAt(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if !(vip.StartTime < std.StartTime) {
		t.Fatalf("vip started at %d, std at %d — queue priority ignored", vip.StartTime, std.StartTime)
	}
}
