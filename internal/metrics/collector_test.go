package metrics

import (
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// TestCollectorMatchesCollect: folding jobs one at a time must produce the
// same DomainReport struct (same float bits) as the batch Collect, and
// rendering the report must not consume the fold.
func TestCollectorMatchesCollect(t *testing.T) {
	jobs := []*job.Job{
		mkdone(1, 10, 0, 600, 600, false),
		mkdone(2, 20, 0, 1200, 600, true),
		job.New(3, 5, 0, 60, 60), // stuck
		mkdone(4, 3, 100, 5000, 900, true),
	}
	jobs[1].HeldNodeSeconds = 7200
	jobs[1].YieldCount = 2
	jobs[1].HoldCount = 1
	cancelled := job.New(5, 2, 0, 30, 30)
	cancelled.State = job.Cancelled
	jobs = append(jobs, cancelled)

	span := sim.Duration(7200)
	want := Collect("dom", jobs, 64, span)

	c := collector{r: DomainReport{Domain: "dom"}}
	for _, j := range jobs {
		c.add(j)
	}
	got := c.report(64, span)
	if got != want {
		t.Fatalf("Collector report:\n got %+v\nwant %+v", got, want)
	}

	// Report is idempotent across calls.
	if again := c.report(64, span); again != want {
		t.Fatalf("second Report diverged: %+v", again)
	}
}
