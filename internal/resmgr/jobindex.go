package resmgr

import "cosched/internal/job"

// denseSlack is the constant term of the job index's memory bound: the
// dense part may cover up to 2n+denseSlack IDs when it holds n jobs.
const denseSlack = 1024

// jobIndex finds a registered job by its ID. Real inputs number their jobs
// densely from 1 — workload.Generate numbers a trace 1..N, and snapshots,
// journals and sequential admin clients keep those IDs — so a job whose ID
// falls in the dense window lives in a slice at ID−1, and a lookup is one
// bounds check and one load instead of a hashed probe. Every other ID (0,
// negatives, math.MaxInt64, IDs sparse enough to fall past the window)
// lives in a map, allocated by the first such ID, so the index is exact for
// any int64.
//
// The window is density-bounded: with n jobs registered, the dense part
// grows to cover an ID only while that ID is at most 2n+denseSlack, and
// never beyond that length, so len(dense) ≤ 2n+denseSlack at all times (a
// single job with ID 1<<62 costs one map entry, not an exabyte of slice).
// Within that bound the dense part doubles, so jobs put in ID order copy
// each pointer a constant number of times on average. A trace numbered
// 1..n in order costs nothing: adopt makes the trace slice itself the
// dense part, full (no free slot) and with its capacity clipped to its
// length, so the first put past it grows into a fresh allocation and the
// caller's slice is never written. Nothing is ever removed: the registry
// keeps every job for the manager's life.
type jobIndex struct {
	dense  []*job.Job          // dense[id-1]; nil is a free slot
	sparse map[job.ID]*job.Job // IDs outside the window when they arrived; nil until the first
	n      int                 // jobs registered, in both parts
}

// get returns the job registered under id, if any. An ID inside the dense
// part's range can still be in the map: it arrived while the window did
// not yet reach it.
func (x *jobIndex) get(id job.ID) (*job.Job, bool) {
	if k := uint64(id) - 1; k < uint64(len(x.dense)) {
		if j := x.dense[k]; j != nil || x.sparse == nil {
			return j, j != nil
		}
	}
	j, ok := x.sparse[id]
	return j, ok
}

// adopt makes trace, whose jobs are numbered 1..len(trace) in order, the
// dense part. The index must be empty or hold a shorter prefix of trace,
// adopted the same way; len(trace) == cap(trace), so put never writes
// into it.
func (x *jobIndex) adopt(trace []*job.Job) {
	x.dense, x.n = trace, len(trace)
}

// put registers j, whose ID the caller has checked is not registered yet.
func (x *jobIndex) put(j *job.Job) {
	x.n++
	k := uint64(j.ID) - 1
	if limit := uint64(2*x.n + denseSlack); k >= uint64(len(x.dense)) && k < limit {
		// Double, but never past the density bound; k < limit, so the
		// grown part covers k.
		size := max(k+1, min(max(2*uint64(len(x.dense)), 64), limit))
		grown := make([]*job.Job, size)
		copy(grown, x.dense)
		x.dense = grown
	}
	if k < uint64(len(x.dense)) {
		x.dense[k] = j
		return
	}
	if x.sparse == nil {
		x.sparse = make(map[job.ID]*job.Job)
	}
	x.sparse[j.ID] = j
}
