package baseline

import (
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// TestCoReserveValidation and TestMetascheduleValidation pin the one input
// check both comparators share: every bad configuration is refused by each
// entry point before it simulates.
func TestCoReserveValidation(t *testing.T) { testValidation(t, CoReserve) }

func TestMetascheduleValidation(t *testing.T) { testValidation(t, Metaschedule) }

func testValidation(t *testing.T, run func([]DomainConfig) (*Result, error)) {
	for _, tc := range []struct {
		name    string
		domains func() []DomainConfig
	}{
		{"no domains", func() []DomainConfig { return nil }},
		{"empty name", func() []DomainConfig { return []DomainConfig{{Name: "", Nodes: 4}} }},
		{"duplicate domain", func() []DomainConfig {
			return []DomainConfig{{Name: "a", Nodes: 4}, {Name: "a", Nodes: 8}}
		}},
		{"empty machine", func() []DomainConfig { return []DomainConfig{{Name: "a", Nodes: 0}} }},
		{"invalid job", func() []DomainConfig {
			return []DomainConfig{{Name: "a", Nodes: 100, Trace: []*job.Job{job.New(1, 1, -5, 10, 10)}}}
		}},
		{"oversize job", func() []DomainConfig {
			return []DomainConfig{{Name: "a", Nodes: 100, Trace: []*job.Job{job.New(1, 200, 0, 10, 10)}}}
		}},
		{"duplicate job id", func() []DomainConfig {
			return []DomainConfig{{Name: "a", Nodes: 100, Trace: []*job.Job{
				job.New(1, 1, 0, 10, 10), job.New(1, 1, 0, 10, 10),
			}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := run(tc.domains()); err == nil {
				t.Errorf("accepted %s", tc.name)
			}
		})
	}
}

// TestCoStartCheckCountsEachPairOnce runs the shared co-start check on
// hand-set start times: a split pair is one violation however many
// halves point at each other, a pair whose mate is missing is none, and a
// running mate counts by its start instant as a completed one does.
func TestCoStartCheckCountsEachPairOnce(t *testing.T) {
	done := func(id job.ID, start sim.Time, mates ...job.MateRef) *job.Job {
		j := job.New(id, 1, 0, 10, 10)
		j.State, j.StartTime, j.Mates = job.Completed, start, mates
		return j
	}
	running := job.New(3, 1, 0, 10, 10)
	running.State, running.StartTime = job.Running, 100
	domains := []DomainConfig{
		{Name: "a", Nodes: 4, Trace: []*job.Job{
			done(1, 100, job.MateRef{Domain: "b", Job: 1}), // split from b/1
			done(2, 100, job.MateRef{Domain: "b", Job: 2}), // co-started with b/2
			done(3, 100, job.MateRef{Domain: "b", Job: 3}), // co-started, mate still running
			done(4, 100, job.MateRef{Domain: "b", Job: 9}), // mate missing
		}},
		{Name: "b", Nodes: 4, Trace: []*job.Job{
			done(1, 160, job.MateRef{Domain: "a", Job: 1}),
			done(2, 100, job.MateRef{Domain: "a", Job: 2}),
			running,
		}},
	}
	byID, err := index(domains)
	if err != nil {
		t.Fatal(err)
	}
	if got := newResult(domains, byID, 200, 0).CoStartViolations; got != 1 {
		t.Fatalf("co-start violations = %d, want 1", got)
	}
}
