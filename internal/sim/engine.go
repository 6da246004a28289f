// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every simulated component in this repository: resource
// managers, coupled-system simulations, and the experiment harness. Events
// are ordered by (time, priority, sequence); the sequence number guarantees
// a total, reproducible order even when many events share a timestamp, which
// is essential for comparing scheduling policies run-for-run.
//
// Time is modelled as int64 seconds of virtual time. Nothing in the kernel
// depends on the wall clock.
//
// An event waits in the binary heap or, when it is due at the very instant it
// was scheduled (as every scheduling-iteration request is), in a short sorted
// lane beside it; the smaller of the two heads fires next, so the order is one.
package sim

import (
	"errors"
	"fmt"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
type Time = int64

// Duration is a span of virtual time in seconds.
type Duration = int64

// Common durations, for readability at call sites.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
)

// Priority orders events that fire at the same instant. Lower values fire
// first. The bands below keep job-lifecycle transitions coherent: at a given
// instant, completions free nodes before submissions arrive, and the
// scheduler iterates only after the state changes that triggered it.
type Priority int

// Priority bands used by the resource-manager layer.
const (
	PriorityEnd      Priority = 0   // job completion: release nodes first
	PriorityRelease  Priority = 10  // periodic hold-release (deadlock breaker)
	PrioritySubmit   Priority = 20  // job arrival
	PrioritySchedule Priority = 30  // scheduling iteration
	PriorityMetrics  Priority = 40  // sampling probes
	PriorityDefault  Priority = 100 // anything else
)

// Handler is the callback invoked when an event fires. It runs with the
// engine clock set to the event's time.
type Handler func(now Time)

// ArgHandler is a Handler with an explicit payload. Scheduling the same
// ArgHandler value with per-event payloads (AtArg/AfterArg) lets hot
// callers reuse one prebuilt function instead of allocating a fresh
// closure per event — the last allocation on the event-scheduling path.
type ArgHandler func(now Time, arg any)

// event is a scheduled callback. Fired and canceled events are recycled
// through the engine's free list, so an event value is reused for many
// logical events over a simulation; gen disambiguates incarnations for
// outstanding EventRefs.
type event struct {
	time     Time
	priority Priority
	seq      uint64
	handler  Handler
	argH     ArgHandler // used instead of handler when non-nil
	arg      any
	gen      uint64
	canceled bool
	index    int // heap index, -1 when popped
}

// EventRef identifies a scheduled event so it can be canceled. It is
// generation-stamped: once the event fires (or its cancellation is
// collected) the ref goes stale and Cancel/Pending become no-ops, even
// though the underlying struct is recycled for later events.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel marks the referenced event so it will not fire. Canceling an
// already-fired or already-canceled event is a no-op. Cancel on the zero
// EventRef is also a no-op.
func (r EventRef) Cancel() {
	if r.ev != nil && r.ev.gen == r.gen {
		r.ev.canceled = true
	}
}

// Pending reports whether the referenced event is still scheduled to fire.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.canceled && r.ev.index >= 0
}

// eventHeap is a binary min-heap of events ordered by (time, priority,
// seq). It is hand-rolled rather than container/heap: the interface
// dispatch and per-comparison function calls of the generic heap were the
// single largest CPU sink of a simulation sweep (~20% in Step alone), and
// the specialized sift loops below inline completely.
type eventHeap []*event

// eventLess is the total event order: earlier time, then lower priority
// value, then schedule order.
func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// push inserts ev, maintaining the heap order and the events' index
// fields (Pending checks index to see whether an event is still queued).
//
//simlint:hotpath
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev) //simlint:allow R6 amortized heap growth, bounded by peak concurrent events (trace replay is chained, not pre-scheduled)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
	*h = q
}

// pop removes and returns the minimum event, or nil on an empty heap.
//
//simlint:hotpath
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q)
	if n == 0 {
		return nil
	}
	root := q[0]
	root.index = -1
	n--
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return root
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && eventLess(q[r], q[kid]) {
			kid = r
		}
		if !eventLess(q[kid], last) {
			break
		}
		q[i] = q[kid]
		q[i].index = i
		i = kid
	}
	q[i] = last
	last.index = i
	return root
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all handlers run on the caller's goroutine inside Run.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap // events scheduled for an instant later than the one they were scheduled at
	lane    []*event  // lane[head:]: those scheduled for that very instant, by (priority, seq); their time equals now
	head    int       // index of the lane's next event; the lane is reset to empty when it drains
	free    []*event  // recycled event structs; see recycle
	fired   uint64
	running bool
}

// NewEngine returns an engine with the clock at time 0. The event heap is
// preallocated: even small simulations queue hundreds of events, and the
// doubling reallocations otherwise show up in every experiment cell.
func NewEngine() *Engine {
	return &Engine{queue: make(eventHeap, 0, 1024), free: make([]*event, 0, 1024)}
}

// newEvent returns a zeroed event, recycled from the free list when one is
// available. Steady-state simulation (schedule/fire churn) therefore runs
// with zero event allocations once the pool has warmed to the simulation's
// peak concurrent event count.
//
//simlint:hotpath
func (e *Engine) newEvent() *event {
	n := len(e.free)
	if n == 0 {
		return &event{}
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return ev
}

// recycle returns a fired or collected-canceled event to the free list.
// The generation bump invalidates every outstanding EventRef to this
// incarnation, and the handler/arg fields are cleared so recycled events
// do not pin closures or payloads for the garbage collector.
//
//simlint:hotpath
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler = nil
	ev.argH = nil
	ev.arg = nil
	ev.canceled = false
	ev.index = -1
	// Every pooled event came out of the heap, so the pool (and the total
	// number of event structs in existence) is bounded by the peak
	// concurrent event count, not by the number of events ever fired.
	e.free = append(e.free, ev) //simlint:allow R6 amortized free-list growth, bounded by peak concurrent events
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events scheduled and not yet fired or
// canceled. Canceled events still in the heap are excluded.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.canceled {
			n++
		}
	}
	for _, ev := range e.lane[e.head:] {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// laneAdd files an event due now in the lane: seq only grows, so its place is
// the tail unless its priority value is below the tail's, and then it bubbles
// back past just those.
//
//simlint:hotpath
func (e *Engine) laneAdd(ev *event) {
	e.lane = append(e.lane, ev) //simlint:allow R6 amortized lane growth, bounded by the peak count of events pending at one instant
	i := len(e.lane) - 1
	for ; i > e.head && ev.priority < e.lane[i-1].priority; i-- {
		e.lane[i] = e.lane[i-1]
	}
	e.lane[i] = ev
	ev.index = 0 // queued, as EventRef.Pending reads it, though not in the heap
}

// next returns the next event in (time, priority, seq) order (canceled or
// not, nil when none is queued) and whether it is the lane's head.
func (e *Engine) next() (ev *event, lane bool) {
	if e.head < len(e.lane) && (len(e.queue) == 0 || eventLess(e.lane[e.head], e.queue[0])) {
		return e.lane[e.head], true
	}
	if len(e.queue) == 0 {
		return nil, false
	}
	return e.queue[0], false
}

// pop removes and returns what next returns.
//
//simlint:hotpath
func (e *Engine) pop() *event {
	ev, lane := e.next()
	if !lane {
		return e.queue.pop()
	}
	e.lane[e.head] = nil
	if e.head++; e.head == len(e.lane) {
		e.lane, e.head = e.lane[:0], 0
	}
	ev.index = -1
	return ev
}

// ErrPastEvent is returned by At when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules h to run at absolute time t with the given priority.
// Scheduling at the current instant is allowed (the event fires during the
// current Run). Scheduling in the past returns ErrPastEvent.
//
//simlint:hotpath
func (e *Engine) At(t Time, p Priority, h Handler) (EventRef, error) {
	if t < e.now {
		return EventRef{}, fmt.Errorf("%w: now=%d, requested=%d", ErrPastEvent, e.now, t)
	}
	ev := e.newEvent()
	ev.time, ev.priority, ev.seq, ev.handler = t, p, e.seq, h
	e.seq++
	if t != e.now {
		e.queue.push(ev)
	} else {
		e.laneAdd(ev)
	}
	return EventRef{ev, ev.gen}, nil
}

// After schedules h to run d seconds from now. Negative d is clamped to 0.
func (e *Engine) After(d Duration, p Priority, h Handler) EventRef {
	if d < 0 {
		d = 0
	}
	ref, _ := e.At(e.now+d, p, h) // cannot be in the past
	return ref
}

// AtArg is At for an ArgHandler plus payload: h(now, arg) fires at t.
// Callers that would otherwise build a per-event closure over one varying
// value pass that value as arg and reuse a single prebuilt h, making the
// schedule path allocation-free.
//
//simlint:hotpath
func (e *Engine) AtArg(t Time, p Priority, h ArgHandler, arg any) (EventRef, error) {
	if t < e.now {
		return EventRef{}, fmt.Errorf("%w: now=%d, requested=%d", ErrPastEvent, e.now, t)
	}
	ev := e.newEvent()
	ev.time, ev.priority, ev.seq, ev.argH, ev.arg = t, p, e.seq, h, arg
	e.seq++
	if t != e.now {
		e.queue.push(ev)
	} else {
		e.laneAdd(ev)
	}
	return EventRef{ev, ev.gen}, nil
}

// AfterArg schedules h(now, arg) to run d seconds from now. Negative d is
// clamped to 0.
func (e *Engine) AfterArg(d Duration, p Priority, h ArgHandler, arg any) EventRef {
	if d < 0 {
		d = 0
	}
	ref, _ := e.AtArg(e.now+d, p, h, arg) // cannot be in the past
	return ref
}

// Every schedules h to run every interval seconds, first firing after one
// interval. The returned ref cancels the whole series. interval must be > 0.
func (e *Engine) Every(interval Duration, p Priority, h Handler) EventRef {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	series := &event{canceled: false, index: -1}
	var schedule func()
	schedule = func() {
		ref := e.After(interval, p, func(now Time) {
			if series.canceled {
				return
			}
			h(now)
			if !series.canceled {
				schedule()
			}
		})
		// Keep series.index sane for Pending: mirror the live event.
		series.index = ref.ev.index
	}
	schedule()
	// The series sentinel never enters the heap, so it is never recycled
	// and its generation stays 0 for the lifetime of the ref.
	return EventRef{series, 0}
}

// Step fires the single next pending event, advancing the clock to its time.
// It returns false when no events remain.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	for len(e.queue)+len(e.lane) > 0 {
		var ev *event
		if len(e.lane) == 0 {
			ev = e.queue.pop() // the common case, spared a call
		} else {
			ev = e.pop()
		}
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.time
		e.fired++
		if ev.argH != nil {
			h, arg := ev.argH, ev.arg
			e.recycle(ev)
			h(e.now, arg)
		} else {
			h := ev.handler
			e.recycle(ev)
			h(e.now)
		}
		return true
	}
	return false
}

// Run fires events until the queue drains. It returns the final clock value.
func (e *Engine) Run() Time {
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time ≤ deadline, then sets the clock to the
// deadline (if it is later than the last event fired) and returns it. Events
// after the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.running = true
	defer func() { e.running = false }()
	for next := e.peek(); next != nil && next.time <= deadline; next = e.peek() {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.now + d) }

// NextTime returns the time of the next pending event, if any. It is used
// by the real-time driver to decide how long to sleep.
func (e *Engine) NextTime() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.time, true
}

// peek returns the next non-canceled event without popping, draining any
// canceled events it encounters on the way.
func (e *Engine) peek() *event {
	for ev, _ := e.next(); ev != nil; ev, _ = e.next() {
		if !ev.canceled {
			return ev
		}
		e.recycle(e.pop())
	}
	return nil
}
