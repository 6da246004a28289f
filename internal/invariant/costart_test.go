package invariant

import (
	"reflect"
	"strings"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// startedJob builds a job in the given state, started at start when the
// state is running or completed, with the given mates.
func startedJob(id job.ID, state job.State, start sim.Time, mates ...job.MateRef) *job.Job {
	j := job.New(id, 1, 0, 60, 60)
	j.State, j.Mates = state, mates
	if started(j) {
		j.StartTime = start
	}
	return j
}

func ref(domain string, id job.ID) job.MateRef { return job.MateRef{Domain: domain, Job: id} }

// TestVerifyCoStarts: the one co-start rule, on hand-built job tables —
// the cases the simulator, the §III baselines and cosim -verify rely on.
func TestVerifyCoStarts(t *testing.T) {
	differ := func(domain string, id job.ID, mate job.MateRef, start, mateAt sim.Time) Violation {
		return Violation{Domain: domain, JobID: id, Mate: mate, Start: start, MateAt: mateAt, Reason: "start instants differ"}
	}
	// total order: one job with two violating mates listed out of order,
	// and more than twelve violations, where sort.Slice stopped being an
	// insertion sort and stopped being stable.
	order := map[string][]*job.Job{
		"A": {startedJob(1, job.Completed, 100, ref("C", 1), ref("B", 1))},
		"B": {startedJob(1, job.Completed, 200, ref("A", 1))},
		"C": {startedJob(1, job.Completed, 300, ref("A", 1))},
	}
	orderWant := []Violation{differ("A", 1, ref("B", 1), 100, 200), differ("A", 1, ref("C", 1), 100, 300)}
	for id := job.ID(2); id <= 13; id++ {
		order["A"] = append(order["A"], startedJob(id, job.Completed, 100, ref("B", id)))
		order["B"] = append(order["B"], startedJob(id, job.Running, 150, ref("A", id)))
		orderWant = append(orderWant, differ("A", id, ref("B", id), 100, 150))
	}

	for _, tc := range []struct {
		name string
		jobs map[string][]*job.Job
		want []Violation
	}{
		{"co-started pair", map[string][]*job.Job{
			"A": {startedJob(1, job.Completed, 100, ref("B", 1))},
			"B": {startedJob(1, job.Running, 100, ref("A", 1))},
		}, nil},
		{"divergent starts", map[string][]*job.Job{
			"A": {startedJob(1, job.Completed, 100, ref("B", 1))},
			"B": {startedJob(1, job.Completed, 250, ref("A", 1))},
		}, []Violation{differ("A", 1, ref("B", 1), 100, 250)}},
		{"lonely start", map[string][]*job.Job{
			"A": {startedJob(1, job.Running, 100, ref("B", 9))},
		}, []Violation{{Domain: "A", JobID: 1, Mate: ref("B", 9), Start: 100, MateAt: -1, Reason: "mate never started"}}},
		{"lonely start from the larger side", map[string][]*job.Job{
			"A": {startedJob(1, job.Holding, 0, ref("B", 1))},
			"B": {startedJob(1, job.Completed, 40, ref("A", 1))},
		}, []Violation{{Domain: "B", JobID: 1, Mate: ref("A", 1), Start: 40, MateAt: -1, Reason: "mate never started"}}},
		{"unstarted pairs", map[string][]*job.Job{
			"A": {startedJob(1, job.Queued, 0, ref("B", 1))},
			"B": {startedJob(1, job.Unsubmitted, 0, ref("A", 1))},
		}, nil},
		{"total order", order, orderWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			index := func(r job.MateRef) (*job.Job, bool) {
				for _, j := range tc.jobs[r.Domain] {
					if j.ID == r.Job {
						return j, true
					}
				}
				return nil, false
			}
			// Every call, with the caller's lookup or the built index, must
			// give the same list in the same order.
			for i := 0; i < 20; i++ {
				for _, mate := range []func(job.MateRef) (*job.Job, bool){nil, index} {
					if got := VerifyCoStarts(tc.jobs, mate); !reflect.DeepEqual(got, tc.want) {
						t.Fatalf("call %d: got %v\nwant %v", i, got, tc.want)
					}
				}
			}
			for _, v := range tc.want {
				if s := v.String(); !strings.Contains(s, v.Reason) {
					t.Fatalf("String() = %q lacks the reason", s)
				}
			}
		})
	}
}
