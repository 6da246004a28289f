package invariant_test

import (
	"fmt"

	"cosched/internal/invariant"
	"cosched/internal/job"
)

// ExampleVerifyCoStarts checks the paper's §V-B property over two domains'
// finished jobs: this pair's halves started at different instants.
func ExampleVerifyCoStarts() {
	a := job.New(1, 8, 0, 600, 600)
	b := job.New(1, 2, 0, 600, 600)
	a.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	a.State, a.StartTime = job.Completed, 100
	b.State, b.StartTime = job.Completed, 250
	jobs := map[string][]*job.Job{"A": {a}, "B": {b}}
	for _, v := range invariant.VerifyCoStarts(jobs, nil) {
		fmt.Println(v)
	}
	// Output:
	// A/job 1 vs B/job 1: start instants differ (start 100 vs 250)
}
