package backfill

import (
	"math/rand"
	"slices"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// reducedOrder keeps, of an order, the jobs whose charge fits free and the
// first one whose charge does not: what the resource manager's incremental
// core hands PlanInto in place of the whole queue.
func reducedOrder(ordered []*job.Job, charge func(int) int, free int) []*job.Job {
	var out []*job.Job
	blocked := false
	for _, j := range ordered {
		if fits := charge(j.Nodes) <= free; fits || !blocked {
			out = append(out, j)
			blocked = blocked || !fits
		}
	}
	return out
}

// TestReducedOrderPlansTheSameProperty is the premise of the reduced order:
// a job whose charge exceeds the free nodes can neither start in the greedy
// prefix nor backfill, and only the first such job in priority order can be
// the protected head, so PlanInto — backfilling on or off — returns the same
// decisions (jobs, order, HoldSafe) and asks for the same estimates from the
// whole order and from the reduced one.
func TestReducedOrderPlansTheSameProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for c := 0; c < 4000; c++ {
		total := 16 << rng.Intn(6) // 16 … 512
		free := rng.Intn(total + 1)
		chargeOf := func(n int) int { return n }
		var charge ChargeFunc // nil = plain
		if rng.Intn(2) == 0 {
			charge = cluster.NewPartitioned("p", total, 1<<rng.Intn(4)).ChargeFor
			chargeOf = charge
		}
		now := sim.Time(rng.Intn(10000))

		// Any permutation is some policy's order; a mix of sizes around
		// free makes blocked heads at every depth common.
		ordered := make([]*job.Job, rng.Intn(24))
		for i := range ordered {
			nodes := 1 + rng.Intn(total)
			if rng.Intn(2) == 0 {
				nodes = 1 + rng.Intn(max(free, 1))
			}
			ordered[i] = mkjob(job.ID(i+1), nodes, sim.Duration(1+rng.Intn(5000)))
		}
		releases := make([]Release, rng.Intn(8))
		for i := range releases {
			releases[i] = Release{Nodes: 1 + rng.Intn(total), EndBy: now - 50 + sim.Time(rng.Intn(6000))}
		}
		SortReleases(releases)

		reduced := reducedOrder(ordered, chargeOf, free)
		for _, backfilling := range []bool{false, true} {
			var asked [2][]job.ID
			plans := [2][]Decision{}
			for i, q := range [][]*job.Job{ordered, reduced} {
				plans[i] = PlanInto(nil, q, free, charge, releases, now, backfilling, func(j *job.Job) sim.Duration {
					asked[i] = append(asked[i], j.ID)
					return j.Walltime / 2
				})
			}
			if !slices.Equal(plans[0], plans[1]) {
				t.Fatalf("case %d backfilling=%v free=%d: whole order plans %v, reduced order %v",
					c, backfilling, free, plans[0], plans[1])
			}
			if !slices.Equal(asked[0], asked[1]) {
				t.Fatalf("case %d backfilling=%v: estimates asked for %v, reduced order asked for %v",
					c, backfilling, asked[0], asked[1])
			}
		}
	}
}

// TestReducedOrderChangesConservativePlan pins why the resource manager
// must not hand the conservative planner the reduced order: it reserves for
// every blocked job, so a second blocked job behind the head changes what a
// fitting job may do. Ten nodes, six busy until t=100: A (6) reserves
// [100,200) and leaves four nodes spare, which C (4) could hold forever —
// unless B (10), the second blocked job, holds a reservation for the whole
// machine behind A.
func TestReducedOrderChangesConservativePlan(t *testing.T) {
	a, b, c := mkjob(1, 6, 100), mkjob(2, 10, 100), mkjob(3, 4, 50)
	whole := []*job.Job{a, b, c}
	releases := []Release{{Nodes: 6, EndBy: 100}}
	const total, free = 10, 4
	reduced := reducedOrder(whole, func(n int) int { return n }, free)
	if !slices.Equal(reduced, []*job.Job{a, c}) {
		t.Fatalf("reduced order = %v", reduced)
	}

	full := PlanConservativeInto(nil, whole, total, free, nil, releases, 0, nil)
	cut := PlanConservativeInto(nil, reduced, total, free, nil, releases, 0, nil)
	if want := []Decision{{Job: c, HoldSafe: false}}; !slices.Equal(full, want) {
		t.Fatalf("whole order: %v, want %v", full, want)
	}
	if want := []Decision{{Job: c, HoldSafe: true}}; !slices.Equal(cut, want) {
		t.Fatalf("reduced order: %v, want %v (the pinned difference is gone — is the guard in Iterate still needed?)", cut, want)
	}
	// EASY protects only A, so it plans C the same from either order.
	if e1, e2 := Plan(whole, free, nil, releases, 0, true, nil), Plan(reduced, free, nil, releases, 0, true, nil); !slices.Equal(e1, e2) {
		t.Fatalf("EASY differs: %v vs %v", e1, e2)
	}
}
