package workload

import (
	"io"
	"reflect"
	"testing"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// sliceIter adapts a materialized, submit-sorted job slice to JobIter, so
// the differential tests compare AnalyzeStream and Analyze over identical
// jobs.
type sliceIter struct {
	jobs []*job.Job
	idx  int
}

func (s *sliceIter) NextJob() (*job.Job, error) {
	if s.idx >= len(s.jobs) {
		return nil, io.EOF
	}
	j := s.jobs[s.idx]
	s.idx++
	return j, nil
}

// genStatsTrace builds a workload exercising the stats paths: duplicate
// submit seconds, many size classes, paired jobs, runtime/walltime spread.
func genStatsTrace(n int) []*job.Job {
	var jobs []*job.Job
	for i := 1; i <= n; i++ {
		j := job.New(job.ID(i), 1+(i*7)%20, sim.Time((i/3)*30), sim.Duration(60+i%500), sim.Duration(120+i%900))
		j.User = i % 7
		if i%5 == 0 {
			j.Mates = []job.MateRef{{Domain: "x", Job: job.ID(i)}}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestAnalyzeStreamMatchesAnalyze is the tentpole contract for streaming
// trace statistics: every field of TraceStats — and therefore every byte
// of the rendered report — must equal the materialized Analyze, not merely
// approximate it.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for _, n := range []int{0, 1, 2, 60, 777} {
		jobs := genStatsTrace(n)
		want := Analyze(jobs, 512)
		got, err := AnalyzeStream(&sliceIter{jobs: bySubmit(jobs)}, 512)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if a, b := got.Render("probe", 512), want.Render("probe", 512); a != b {
			t.Fatalf("n=%d: streamed stats render differs:\n%s\nvs\n%s", n, a, b)
		}
		// Render only shows mean/median/p90/max; compare the structs too so
		// P99/Stddev/Min stay exact.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: stats structs differ:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

func TestAnalyzeStreamRejectsUnsorted(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 4, 100, 60, 60),
		job.New(2, 4, 50, 60, 60),
	}
	if _, err := AnalyzeStream(&sliceIter{jobs: jobs}, 512); err == nil {
		t.Fatal("unsorted source accepted")
	}
}
