package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ref is what a programme keeps of a scheduled event; EventRef and the
// oracle's handle both satisfy it.
type ref interface {
	Cancel()
	Pending() bool
}

// kernel is the surface a programme drives: Engine (through laneKernel) and
// the oracle offer the same one.
type kernel interface {
	Now() Time
	Fired() uint64
	Pending() int
	At(t Time, p Priority, h Handler) (ref, error)
	AfterArg(d Duration, p Priority, h ArgHandler, arg any) ref
	Every(interval Duration, p Priority, h Handler) ref
	Step() bool
	Run() Time
	RunUntil(deadline Time) Time
	NextTime() (Time, bool)
}

// laneKernel adapts Engine's concrete EventRef results to kernel.
type laneKernel struct{ *Engine }

func (k laneKernel) At(t Time, p Priority, h Handler) (ref, error) {
	return k.Engine.At(t, p, h)
}
func (k laneKernel) AfterArg(d Duration, p Priority, h ArgHandler, arg any) ref {
	return k.Engine.AfterArg(d, p, h, arg)
}
func (k laneKernel) Every(interval Duration, p Priority, h Handler) ref {
	return k.Engine.Every(interval, p, h)
}

// oracle is the order reference: every event waits in one unsorted list and
// the next to fire is the (time, priority, seq) minimum found by scanning it.
// It has no heap, no lane, no free list and no generations — nothing the
// engine's order could share a bug with.
type oracle struct {
	now    Time
	seq    uint64
	fired  uint64
	events []*oracleEvent
}

type oracleEvent struct {
	time     Time
	priority Priority
	seq      uint64
	fire     func(now Time)
	canceled bool
	done     bool // fired
}

func (ev *oracleEvent) Cancel()       { ev.canceled = true }
func (ev *oracleEvent) Pending() bool { return !ev.canceled && !ev.done }

func (o *oracle) Now() Time     { return o.now }
func (o *oracle) Fired() uint64 { return o.fired }

func (o *oracle) Pending() int {
	n := 0
	for _, ev := range o.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}

func (o *oracle) schedule(t Time, p Priority, fire func(Time)) *oracleEvent {
	ev := &oracleEvent{time: t, priority: p, seq: o.seq, fire: fire}
	o.seq++
	o.events = append(o.events, ev)
	return ev
}

func (o *oracle) At(t Time, p Priority, h Handler) (ref, error) {
	if t < o.now {
		return nil, ErrPastEvent
	}
	return o.schedule(t, p, h), nil
}

func (o *oracle) AfterArg(d Duration, p Priority, h ArgHandler, arg any) ref {
	return o.schedule(o.now+max(d, 0), p, func(now Time) { h(now, arg) })
}

// seriesRef cancels an Every series; like the engine's, it stays pending
// until canceled.
type seriesRef struct{ canceled bool }

func (s *seriesRef) Cancel()       { s.canceled = true }
func (s *seriesRef) Pending() bool { return !s.canceled }

func (o *oracle) Every(interval Duration, p Priority, h Handler) ref {
	s := &seriesRef{}
	var tick func(Time)
	tick = func(now Time) {
		if s.canceled {
			return
		}
		h(now)
		if !s.canceled {
			o.schedule(o.now+interval, p, tick)
		}
	}
	o.schedule(o.now+interval, p, tick)
	return s
}

// before is the total event order, spelled out independently of eventLess.
func (a *oracleEvent) before(b *oracleEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// next drops canceled events and returns the index of the minimum of the
// rest, -1 when none remain.
func (o *oracle) next() int {
	o.events = slices.DeleteFunc(o.events, func(ev *oracleEvent) bool { return ev.canceled })
	best := -1
	for i, ev := range o.events {
		if best < 0 || ev.before(o.events[best]) {
			best = i
		}
	}
	return best
}

func (o *oracle) Step() bool {
	i := o.next()
	if i < 0 {
		return false
	}
	ev := o.events[i]
	o.events = slices.Delete(o.events, i, i+1)
	ev.done = true
	o.now = ev.time
	o.fired++
	ev.fire(o.now)
	return true
}

func (o *oracle) Run() Time {
	for o.Step() {
	}
	return o.now
}

func (o *oracle) RunUntil(deadline Time) Time {
	for i := o.next(); i >= 0 && o.events[i].time <= deadline; i = o.next() {
		o.Step()
	}
	o.now = max(o.now, deadline)
	return o.now
}

func (o *oracle) NextTime() (Time, bool) {
	if i := o.next(); i >= 0 {
		return o.events[i].time, true
	}
	return 0, false
}

// runProgramme interprets data as a programme against k and returns what it
// observed: every firing (event id and instant), every probe's answer, and
// the final Fired(), clock and Pending(). Each handler reads its own actions
// from the same byte stream, so two kernels that fire in the same order read
// the same programme, and the first difference in order shows in the logs.
// A drained stream reads as zeros, under which handlers schedule nothing, so
// every programme ends.
func runProgramme(k kernel, data []byte) []string {
	var log []string
	say := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	priorities := []Priority{PriorityEnd, PriorityRelease, PrioritySubmit, PrioritySchedule, PriorityMetrics, PriorityDefault}
	var refs, series []ref
	ids := 0
	var act func()
	handler := func() Handler {
		id := ids
		ids++
		return func(now Time) {
			say("fire %d @%d", id, now)
			for n := next() % 4; n > 0; n-- {
				act()
			}
		}
	}
	argHandler := func(now Time, arg any) { arg.(Handler)(now) }
	// pick favours the most recent refs: the same-instant siblings of
	// whatever is acting.
	pick := func() ref {
		if len(refs) == 0 {
			return nil
		}
		return refs[len(refs)-1-next()%min(len(refs), 8)]
	}
	act = func() {
		switch next() % 12 {
		case 0, 1, 2: // due now: lower, equal or higher priority than what is pending
			r, err := k.At(k.Now(), priorities[next()%len(priorities)], handler())
			if err != nil {
				say("At(now): %v", err)
				return
			}
			refs = append(refs, r)
		case 3, 4: // due later
			refs = append(refs, k.AfterArg(Duration(next()%6), priorities[next()%len(priorities)], argHandler, handler()))
		case 5:
			_, err := k.At(k.Now()-1-Time(next()%3), PriorityDefault, handler())
			say("At(past) refused=%v", err != nil)
		case 6, 7:
			if r := pick(); r != nil {
				r.Cancel()
			}
		case 8:
			if r := pick(); r != nil {
				say("ref pending=%v", r.Pending())
			}
		case 9:
			t, ok := k.NextTime()
			say("next=%d,%v pending=%d fired=%d", t, ok, k.Pending(), k.Fired())
		case 10:
			if len(series) < 3 {
				series = append(series, k.Every(Duration(1+next()%4), priorities[next()%len(priorities)], handler()))
			}
		case 11:
			if len(series) > 0 {
				series[next()%len(series)].Cancel()
			}
		}
	}
	for pos < len(data) {
		switch next() % 8 {
		case 0:
			say("step=%v now=%d", k.Step(), k.Now())
		case 1: // lands between events as often as on one
			say("until=%d", k.RunUntil(k.Now()+Time(next()%5)))
		default:
			act()
		}
	}
	for _, s := range series {
		s.Cancel()
	}
	say("run=%d fired=%d pending=%d", k.Run(), k.Fired(), k.Pending())
	return log
}

// checkProgramme requires the engine and the oracle to observe the same
// thing under data.
func checkProgramme(t *testing.T, data []byte) {
	t.Helper()
	got := runProgramme(laneKernel{NewEngine()}, data)
	want := runProgramme(&oracle{}, data)
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("programme %x: observation %d: engine %q, oracle %q", data, i, g, w)
		}
	}
}

// TestEngineOrderDifferential drives the engine and the oracle with the same
// random programmes: the lane must not show in fire order, Fired(),
// Pending(), NextTime(), ref state or the clock.
func TestEngineOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+rng.Intn(160))
		rng.Read(data)
		checkProgramme(t, data)
	}
}

// FuzzEngineOrder is the same differential over coverage-guided programmes;
// testdata/fuzz/FuzzEngineOrder seeds it with a handler that schedules at now
// below, at and above a pending iteration and cancels a same-instant sibling,
// an Every series under RunUntil calls landing between its ticks, and one
// long random cascade.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(checkProgramme)
}

// TestLaneOrdersByPriorityThenSeq pins the lane's one non-trivial move: an
// event due now with a lower priority value than the lane's tail bubbles back
// past it, but never past the head of equal priority (seq order) or past an
// event that has already fired.
func TestLaneOrdersByPriorityThenSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) Handler { return func(Time) { order = append(order, s) } }
	e.After(5, PrioritySubmit, func(Time) {
		e.After(0, PrioritySchedule, note("sched"))
		e.After(0, PriorityMetrics, note("metrics"))
		e.After(0, PrioritySchedule, note("sched2"))
		e.After(0, PrioritySubmit, func(Time) {
			order = append(order, "submit")
			e.After(0, PriorityEnd, note("end")) // behind nothing that is left
		})
	})
	e.After(5, PriorityRelease, note("heap-release")) // same instant, in the heap, fires first
	e.Run()
	want := []string{"heap-release", "submit", "end", "sched", "sched2", "metrics"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if len(e.lane) != 0 || e.head != 0 {
		t.Fatalf("drained lane not reset: len %d head %d", len(e.lane), e.head)
	}
}
