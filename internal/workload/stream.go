package workload

import (
	"fmt"
	"io"
	"sort"

	"cosched/internal/job"
	"cosched/internal/metrics"
	"cosched/internal/sim"
)

// JobIter is a pull source of jobs in (SubmitTime, ID) order, ending with
// io.EOF. It is the streaming counterpart of a materialized []*job.Job from
// trace.ToJobs: AnalyzeStream holds one job at a time, so trace length
// stops being a memory term. trace.JobStream satisfies it structurally.
type JobIter interface {
	// NextJob returns the next job, or io.EOF when the source is drained.
	NextJob() (*job.Job, error)
}

// AnalyzeStream computes TraceStats from a job stream in one pass and
// bounded memory: exact ValueDists (one counter per distinct value) replace
// the per-job []float64 buffers, so the result — and hence Render — is
// byte-identical to Analyze on the materialized slice, while peak memory is
// independent of trace length. The source must be submit-sorted (JobIter's
// contract); a violation is an error.
func AnalyzeStream(src JobIter, totalNodes int) (TraceStats, error) {
	var st TraceStats
	var runtimes, walls, overs, nodes, gaps metrics.ValueDist
	users := map[int]bool{}
	sizes := map[int]int{}
	var first, last, prev sim.Time
	var demand int64
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceStats{}, err
		}
		if st.Jobs > 0 && j.SubmitTime < prev {
			return TraceStats{}, fmt.Errorf("workload: AnalyzeStream source not sorted: t=%d after t=%d", j.SubmitTime, prev)
		}
		if st.Jobs == 0 {
			first = j.SubmitTime
		} else {
			gaps.Add(float64(j.SubmitTime - prev))
		}
		prev = j.SubmitTime
		st.Jobs++
		runtimes.Add(float64(j.Runtime))
		walls.Add(float64(j.Walltime))
		if j.Runtime > 0 {
			overs.Add(float64(j.Walltime) / float64(j.Runtime))
		}
		nodes.Add(float64(j.Nodes))
		users[j.User] = true
		sizes[j.Nodes]++
		st.TotalNodeSeconds += j.NodeSeconds()
		demand += j.NodeSeconds()
		if j.Paired() {
			st.Paired++
		}
		if e := j.SubmitTime + j.Runtime; e > last {
			last = e
		}
	}
	if st.Jobs == 0 {
		return st, nil
	}
	st.Users = len(users)
	st.Span = last - first
	// OfferedLoad over the same ints Analyze feeds it: demand / (nodes × span).
	if totalNodes > 0 {
		if span := last - first; span > 0 {
			st.OfferedLoad = float64(demand) / (float64(totalNodes) * float64(span))
		}
	}
	st.Runtime = runtimes.Summary()
	st.Walltime = walls.Summary()
	st.WallOverReq = overs.Summary()
	st.Nodes = nodes.Summary()
	st.Interarrival = gaps.Summary()
	for n, c := range sizes {
		st.SizeHistogram = append(st.SizeHistogram, SizeBucket{Nodes: n, Count: c})
	}
	sort.Slice(st.SizeHistogram, func(a, b int) bool {
		return st.SizeHistogram[a].Nodes < st.SizeHistogram[b].Nodes
	})
	return st, nil
}
