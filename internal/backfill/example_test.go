package backfill_test

import (
	"fmt"

	"cosched/internal/backfill"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// ExamplePlan shows classic EASY behaviour: the blocked head job gets a
// reservation at the shadow time; a short job backfills around it, a long
// one is refused.
func ExamplePlan() {
	queue := []*job.Job{
		job.New(1, 80, 0, sim.Hour, sim.Hour),       // blocked head: needs 80, only 40 free
		job.New(2, 30, 0, 500, 500),                 // ends before the shadow → backfills
		job.New(3, 30, 0, 10*sim.Hour, 10*sim.Hour), // would delay the reservation → waits
	}
	releases := []backfill.Release{{Nodes: 60, EndBy: 1000}} // running job frees 60 at t=1000
	plan := backfill.Plan(queue, 40, nil, releases, 0, true, nil)
	for _, d := range plan {
		fmt.Printf("start job %d (hold-safe: %v)\n", d.Job.ID, d.HoldSafe)
	}
	// Output:
	// start job 2 (hold-safe: false)
}

// ExampleTimeline plans jobs onto an availability timeline, the substrate
// of conservative backfilling and of the co-reservation baseline.
func ExampleTimeline() {
	tl := backfill.NewTimeline(100)
	// A running job occupies 70 nodes until t=500.
	tl.Add(0, 500, 70)
	fmt.Println("30 nodes now:", tl.EarliestStart(0, 1000, 30))
	fmt.Println("60 nodes now:", tl.EarliestStart(0, 1000, 60))
	// Output:
	// 30 nodes now: 0
	// 60 nodes now: 500
}
