package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// ErrUnsorted marks a stream whose records are not in submit-time order.
// Streaming cannot reorder without materializing the trace, so callers
// that can afford O(trace) memory may catch this and fall back to
// LoadFile/Read.
var ErrUnsorted = errors.New("trace: stream not sorted by submit time")

// JobStream adapts a Stream of SWF records into a pull source of jobs,
// applying the same skip rules and the same (SubmitTime, ID) ordering as
// ToJobs. The input must be sorted by submit time (SWF traces are); only
// records sharing one submit second are buffered to sort ID ties, so
// memory is O(max simultaneous submissions), not O(trace). An out-of-order
// record is an error — silently reordering would need the whole trace in
// memory.
//
// NextJob's (job, io.EOF) contract matches workload.JobIter, so a JobStream
// plugs straight into workload.AnalyzeStream (cmd/traceinfo's path).
type JobStream struct {
	s       *Stream
	tie     []*job.Job // same-submit batch, sorted by ID before draining
	tieIdx  int
	ahead   *job.Job // first job of the next batch, already read
	last    sim.Time // largest submit handed out or buffered
	started bool
	skipped int
	err     error
}

// NewJobStream wraps a record stream. The caller owns the underlying
// reader.
func NewJobStream(s *Stream) *JobStream {
	return &JobStream{s: s}
}

// NextJob returns the next job in (SubmitTime, ID) order, io.EOF at end of
// trace, or the first parse/ordering error.
func (js *JobStream) NextJob() (*job.Job, error) {
	if js.err != nil {
		return nil, js.err
	}
	if js.tieIdx >= len(js.tie) {
		if err := js.refill(); err != nil {
			js.err = err
			return nil, err
		}
	}
	j := js.tie[js.tieIdx]
	js.tieIdx++
	return j, nil
}

// refill gathers every record sharing the next submit second, sorts the
// batch by ID (stable, preserving file order for duplicate IDs — exactly
// ToJobs' tie-break), and makes it the current batch.
func (js *JobStream) refill() error {
	js.tie = js.tie[:0]
	js.tieIdx = 0
	if js.ahead != nil {
		js.tie = append(js.tie, js.ahead)
		js.ahead = nil
	}
	for {
		j, err := js.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(js.tie) == 0 || j.SubmitTime == js.tie[0].SubmitTime {
			js.tie = append(js.tie, j)
			continue
		}
		js.ahead = j
		break
	}
	if len(js.tie) == 0 {
		return io.EOF
	}
	sort.SliceStable(js.tie, func(a, b int) bool { return js.tie[a].ID < js.tie[b].ID })
	return nil
}

// read pulls the next valid job from the record stream, counting skips and
// enforcing submit-sortedness.
func (js *JobStream) read() (*job.Job, error) {
	for js.s.Next() {
		j, ok := JobFromRecord(js.s.Record())
		if !ok {
			js.skipped++
			continue
		}
		if js.started && j.SubmitTime < js.last {
			return nil, fmt.Errorf("%w: job %d at t=%d after t=%d (materialize with LoadFile instead)",
				ErrUnsorted, j.ID, j.SubmitTime, js.last)
		}
		js.started = true
		js.last = j.SubmitTime
		return j, nil
	}
	if err := js.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Skipped returns the number of records rejected so far by the ToJobs
// validity rules.
func (js *JobStream) Skipped() int { return js.skipped }
