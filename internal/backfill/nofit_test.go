package backfill

import (
	"math/rand"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// TestNoFitMeansEmptyPlanProperty is the premise of the resource manager's
// no-fit elision: whatever the order, the releases, the instant and the
// charge function, every decision of every planner charges its job's full
// charge against the nodes free now — so no planner ever selects a job
// whose charge exceeds free, and a queue in which no job's charge fits
// plans nothing. Cases include release lists that claim more nodes than are
// busy (the conservative planner's degraded path) and zero free nodes.
func TestNoFitMeansEmptyPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for c := 0; c < 3000; c++ {
		total := 16 << rng.Intn(6) // 16 … 512
		free := rng.Intn(total + 1)
		var charge ChargeFunc // nil = plain
		if rng.Intn(2) == 0 {
			charge = cluster.NewPartitioned("p", total, 1<<rng.Intn(4)).ChargeFor
		}
		chargeOf := func(n int) int {
			if charge == nil {
				return n
			}
			return charge(n)
		}
		now := sim.Time(rng.Intn(10000))

		queue := make([]*job.Job, rng.Intn(24))
		for i := range queue {
			// Mostly big jobs, so that blocked queues are common; some
			// larger than the machine.
			nodes := 1 + rng.Intn(total+total/8)
			if rng.Intn(3) == 0 {
				nodes = 1 + rng.Intn(max(free, 1))
			}
			queue[i] = mkjob(job.ID(i+1), nodes, sim.Duration(1+rng.Intn(5000)))
		}
		var blocked []*job.Job
		for _, j := range queue {
			if chargeOf(j.Nodes) > free {
				blocked = append(blocked, j)
			}
		}

		releases := make([]Release, rng.Intn(8))
		busy := total - free
		for i := range releases {
			nodes := 1 + rng.Intn(max(busy, 1))
			if rng.Intn(4) > 0 {
				nodes = min(nodes, busy) // keep the list consistent with the pool
				busy -= nodes
			}
			releases[i] = Release{Nodes: nodes, EndBy: now - 50 + sim.Time(rng.Intn(6000))}
		}
		SortReleases(releases)

		planners := []struct {
			name string
			plan func(q []*job.Job) []Decision
		}{
			{"none", func(q []*job.Job) []Decision {
				return PlanInto(nil, q, free, charge, releases, now, false, nil)
			}},
			{"easy", func(q []*job.Job) []Decision {
				return PlanInto(nil, q, free, charge, releases, now, true, nil)
			}},
			{"conservative", func(q []*job.Job) []Decision {
				return PlanConservativeInto(nil, q, total, free, charge, releases, now, nil)
			}},
		}
		for _, p := range planners {
			for _, d := range p.plan(queue) {
				if got := chargeOf(d.Job.Nodes); got > free {
					t.Fatalf("case %d %s: planned job %d charging %d with %d free (total %d, releases %v)",
						c, p.name, d.Job.ID, got, free, total, releases)
				}
			}
			if got := p.plan(blocked); len(got) != 0 {
				t.Fatalf("case %d %s: %d decisions for a queue in which nothing fits %d free nodes: first job %d",
					c, p.name, len(got), free, got[0].Job.ID)
			}
		}
	}
}
