package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program under test). Start and End are nanoseconds
// since the recorder was created; Parent indexes the enclosing span (-1 for
// a root); Unit is the cell or pair the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs call the same code with no clock reads.
//
// The parent of a new span is the innermost span still open. Sweep
// pipelines run on one goroutine, so that is plain nesting; live_pairs has
// one pair in flight whose caller blocks while the callee works (client →
// scheduler → peer call → remote journal write), which nests the same way
// across goroutines.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it. A negative
// unit inherits the enclosing span's.
func (r *recorder) begin(name string, unit int) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		if unit < 0 {
			unit = r.spans[parent].Unit
		}
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Unit: unit})
	r.open = append(r.open, id)
	r.mu.Unlock()
	start := time.Since(r.t0)
	return func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id].Start, r.spans[id].End = int64(start), int64(end)
		for i := len(r.open) - 1; i >= 0; i-- {
			if r.open[i] == id {
				r.open = append(r.open[:i], r.open[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
	}
}

// mark returns the current span count, so a caller can later summarize only
// the spans recorded after this point.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// since returns a copy of the spans recorded from mark on, with parents
// re-based (a parent before mark becomes -1).
func (r *recorder) since(mark int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans[mark:]...)
	for i := range out {
		if out[i].Parent >= mark {
			out[i].Parent -= mark
		} else {
			out[i].Parent = -1
		}
	}
	return out
}

// layerTime is the summed duration and self time of every span with one
// name.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums spans by name. A span's self time is its duration minus
// the part of its interval that its direct children cover; overlapping
// children are counted once and children are clipped to the parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}
