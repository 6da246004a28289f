package resmgr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"cosched/internal/job"
)

// indexOracle drives a jobIndex and the map it replaces side by side.
type indexOracle struct {
	t      testing.TB
	x      jobIndex
	oracle map[job.ID]*job.Job
}

func newIndexOracle(t testing.TB) *indexOracle {
	return &indexOracle{t: t, oracle: make(map[job.ID]*job.Job)}
}

// put registers a fresh job under id unless the oracle already has one,
// then checks the index still answers id as the oracle does and that the
// dense part stays within its density bound.
func (o *indexOracle) put(id job.ID) {
	o.t.Helper()
	if _, dup := o.oracle[id]; !dup {
		j := &job.Job{ID: id}
		o.oracle[id] = j
		o.x.put(j)
	}
	o.get(id)
	if limit := 2*o.x.n + denseSlack; len(o.x.dense) > limit || cap(o.x.dense) > limit {
		o.t.Fatalf("dense part len %d cap %d with %d jobs registered; bound 2n+%d = %d",
			len(o.x.dense), cap(o.x.dense), o.x.n, denseSlack, limit)
	}
	if o.x.n != len(o.oracle) {
		o.t.Fatalf("index counts %d jobs, oracle holds %d", o.x.n, len(o.oracle))
	}
}

// adopt registers jobs 1..n the way SubmitTrace registers a trace numbered
// so, one growing prefix at a time, and returns the trace for the caller
// to check later that no put wrote into it.
func (o *indexOracle) adopt(n int) []*job.Job {
	o.t.Helper()
	trace := make([]*job.Job, n)
	for i := range trace {
		trace[i] = &job.Job{ID: job.ID(i + 1)}
		o.oracle[trace[i].ID] = trace[i]
		o.x.adopt(trace[: i+1 : i+1])
	}
	for id := job.ID(0); id <= job.ID(n)+1; id++ {
		o.get(id)
	}
	return trace
}

// untouched fails unless trace still holds jobs 1..len(trace) in order.
func (o *indexOracle) untouched(trace []*job.Job) {
	o.t.Helper()
	for i, j := range trace {
		if j == nil || j.ID != job.ID(i+1) || o.oracle[j.ID] != j {
			o.t.Fatalf("the adopted trace changed at index %d: %v", i, j)
		}
	}
}

func (o *indexOracle) get(id job.ID) {
	o.t.Helper()
	want, wok := o.oracle[id]
	got, ok := o.x.get(id)
	if got != want || ok != wok {
		o.t.Fatalf("get(%d) = %p, %v; the map says %p, %v", id, got, ok, want, wok)
	}
}

// TestJobIndexMatchesMapOracle drives random put/get sequences over every
// kind of ID a manager can be handed — a dense run from 1, the edges (0,
// negatives, the int64 extremes), a stride wider than the window and a
// doubling sequence — and checks every answer against a plain map and the
// dense part's size against 2n+denseSlack after every registration. Most
// seeds first adopt a trace numbered 1..n, as SubmitTrace does, so the
// dense run continues just past it, and must leave that trace unchanged.
func TestJobIndexMatchesMapOracle(t *testing.T) {
	edges := []job.ID{0, -1, -2, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 1}
	adopted := []int{0, 1, 100, 3 * denseSlack}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newIndexOracle(t)
		trace := o.adopt(adopted[seed%int64(len(adopted))])
		dense := job.ID(len(trace))
		var stride, doubling job.ID
		stride = 3 * denseSlack
		doubling = 1
		draw := func() job.ID {
			switch rng.Intn(5) {
			case 0:
				dense++
				return dense
			case 1:
				return edges[rng.Intn(len(edges))]
			case 2:
				stride += 3 * denseSlack
				return stride
			case 3:
				if doubling < math.MaxInt64/2 {
					doubling *= 2
				}
				return doubling
			default:
				return job.ID(rng.Int63n(4*denseSlack)) - denseSlack
			}
		}
		for step := 0; step < 4000; step++ {
			id := draw()
			if rng.Intn(3) == 0 {
				o.put(id)
			} else {
				o.get(id)
				o.get(id + 1)
				o.get(id - 1)
			}
		}
		for id := range o.oracle {
			o.get(id)
		}
		o.untouched(trace)
	}
}

// TestJobIndexMemoryIsBoundedByEntries pins the density bound where an
// untrusted client chooses the IDs: one job at 1<<62, or forty jobs whose
// IDs double, must not grow the dense part past 2n+denseSlack slots, while
// a trace numbered 1..N keeps every job in it.
func TestJobIndexMemoryIsBoundedByEntries(t *testing.T) {
	o := newIndexOracle(t)
	o.put(1 << 62)
	if len(o.x.dense) != 0 {
		t.Fatalf("one job with ID 1<<62 grew the dense part to %d slots", len(o.x.dense))
	}

	o = newIndexOracle(t)
	for i := 0; i < 40; i++ {
		o.put(job.ID(1) << i)
	}
	if got, limit := len(o.x.dense), 2*40+denseSlack; got > limit {
		t.Fatalf("40 doubling IDs grew the dense part to %d slots, bound %d", got, limit)
	}

	o = newIndexOracle(t)
	const n = 100_000
	for id := job.ID(1); id <= n; id++ {
		o.put(id)
	}
	if len(o.x.sparse) != 0 {
		t.Fatalf("a trace numbered 1..%d put %d jobs in the map", n, len(o.x.sparse))
	}
}

// FuzzJobIndex decodes its input as a programme of puts and gets — the
// first byte, times eight, the length of a 1..n trace adopted first (0
// adopts nothing), then each op one byte of kind and eight of ID, the ID
// folded into the dense window for half the kinds: inside the adopted
// trace, just past it and beyond the window — and runs it on the index and
// the map oracle. The adopted trace must come out as it went in.
func FuzzJobIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 3, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 0x40, 0, 0, 0, 0, 0, 0, 0, 2, 0x40, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{16, 1, 0, 0, 0, 0, 0, 0, 0, 129, 1, 0, 0, 0, 0, 0, 0, 0, 130, 0, 0, 0, 0, 0, 0, 0, 129})
	f.Add([]byte{200, 1, 0, 0, 0, 0, 0, 0, 0x0c, 0x80, 3, 0, 0, 0, 0, 0, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newIndexOracle(t)
		var trace []*job.Job
		if len(data) > 0 {
			trace = o.adopt(int(data[0]) * 8)
			data = data[1:]
		}
		for len(data) >= 9 {
			kind := data[0]
			id := job.ID(binary.BigEndian.Uint64(data[1:9]))
			data = data[9:]
			if kind&2 == 0 {
				id %= 3 * denseSlack // near the window: dense, just past it, 0 and negatives
			}
			if kind&1 == 1 {
				o.put(id)
			} else {
				o.get(id)
			}
		}
		for id := range o.oracle {
			o.get(id)
		}
		o.untouched(trace)
	})
}
