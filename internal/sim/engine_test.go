package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, tm := range []Time{30, 10, 20, 10, 5} {
		if _, err := e.At(tm, PriorityDefault, func(now Time) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	end := e.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
	if end != 30 {
		t.Errorf("Run returned %d, want 30", end)
	}
}

func TestEnginePriorityOrderWithinInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(10, PrioritySchedule, func(Time) { order = append(order, "sched") })
	e.After(10, PriorityEnd, func(Time) { order = append(order, "end") })
	e.After(10, PrioritySubmit, func(Time) { order = append(order, "submit") })
	e.After(10, PriorityRelease, func(Time) { order = append(order, "release") })
	e.Run()
	want := []string{"end", "release", "submit", "sched"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOWithinSamePriority(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.After(5, PriorityDefault, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("event %d fired out of order: got %d", i, v)
		}
	}
}

func TestEngineRejectsPastEvents(t *testing.T) {
	e := NewEngine()
	e.After(10, PriorityDefault, func(Time) {})
	e.Run()
	if _, err := e.At(5, PriorityDefault, func(Time) {}); err == nil {
		t.Fatal("scheduling in the past succeeded, want error")
	}
}

func TestEngineSameInstantSchedulingDuringHandler(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(10, PrioritySubmit, func(now Time) {
		// An event scheduled for "now" from inside a handler must fire.
		e.After(0, PrioritySchedule, func(n2 Time) {
			if n2 != now {
				t.Errorf("chained event at %d, want %d", n2, now)
			}
			fired++
		})
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("chained event fired %d times, want 1", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.After(10, PriorityDefault, func(Time) { fired = true })
	if !ref.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	ref.Cancel()
	if ref.Pending() {
		t.Fatal("event still pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and zero-ref cancel are no-ops.
	ref.Cancel()
	EventRef{}.Cancel()
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var times []Time
	ref := e.Every(10, PriorityDefault, func(now Time) {
		times = append(times, now)
		if now >= 50 {
			// Stop the series from inside its own handler.
		}
	})
	e.After(55, PriorityDefault, func(Time) { ref.Cancel() })
	e.RunUntil(100)
	want := []Time{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("periodic fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("periodic fired at %v, want %v", times, want)
		}
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.After(10, PriorityDefault, func(Time) {})
	e.After(100, PriorityDefault, func(Time) {})
	end := e.RunUntil(50)
	if end != 50 {
		t.Fatalf("RunUntil returned %d, want 50", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the t=100 event)", e.Pending())
	}
	e.Run()
	if e.Now() != 100 {
		t.Fatalf("final clock %d, want 100", e.Now())
	}
}

func TestEngineStepReturnsFalseWhenDrained(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	e.After(1, PriorityDefault, func(Time) {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if e.Step() {
		t.Fatal("Step after drain returned true")
	}
}

// Property: for any set of (time, priority) pairs, firing order is sorted
// by (time, priority, insertion order).
func TestEngineOrderingProperty(t *testing.T) {
	type spec struct {
		T uint16
		P uint8
	}
	f := func(specs []spec) bool {
		e := NewEngine()
		type key struct {
			t   Time
			p   Priority
			tie int
		}
		var fired []key
		for i, s := range specs {
			i := i
			tm, pr := Time(s.T), Priority(s.P)
			if _, err := e.At(tm, pr, func(now Time) {
				fired = append(fired, key{now, pr, i})
			}); err != nil {
				return false
			}
		}
		e.Run()
		if len(fired) != len(specs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.t > b.t {
				return false
			}
			if a.t == b.t && a.p > b.p {
				return false
			}
			if a.t == b.t && a.p == b.p && a.tie > b.tie {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.After(Duration(i), PriorityDefault, func(Time) {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestEveryCancelFromOwnHandler(t *testing.T) {
	e := NewEngine()
	var ref EventRef
	count := 0
	ref = e.Every(10, PriorityDefault, func(Time) {
		count++
		if count == 3 {
			ref.Cancel()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("fired %d times, want 3 (self-canceled)", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after self-cancel", e.Pending())
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) accepted")
		}
	}()
	NewEngine().Every(0, PriorityDefault, func(Time) {})
}

func TestNextTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextTime(); ok {
		t.Fatal("empty engine has a next time")
	}
	ref := e.After(50, PriorityDefault, func(Time) {})
	e.After(90, PriorityDefault, func(Time) {})
	if next, ok := e.NextTime(); !ok || next != 50 {
		t.Fatalf("next = %d, %v", next, ok)
	}
	// Canceling the head exposes the next event.
	ref.Cancel()
	if next, ok := e.NextTime(); !ok || next != 90 {
		t.Fatalf("next after cancel = %d, %v", next, ok)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	e.After(10, PriorityDefault, func(Time) {})
	e.RunFor(25)
	if e.Now() != 25 {
		t.Fatalf("now = %d, want 25", e.Now())
	}
	e.RunFor(25)
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-100, PriorityDefault, func(Time) { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative After: fired=%v now=%d", fired, e.Now())
	}
}

func TestEventRecycleInvalidatesStaleRefs(t *testing.T) {
	e := NewEngine()
	var aFired, bFired bool
	refA := e.After(1, PriorityDefault, func(Time) { aFired = true })
	e.Run()
	if !aFired {
		t.Fatal("A did not fire")
	}
	if refA.Pending() {
		t.Fatal("fired event still pending")
	}
	// B reuses A's recycled struct; a stale Cancel on A must not kill B.
	refB := e.After(1, PriorityDefault, func(Time) { bFired = true })
	if refA.ev != refB.ev {
		t.Fatalf("expected struct reuse through the free list (pool len %d)", len(e.free))
	}
	refA.Cancel()
	if !refB.Pending() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	e.Run()
	if !bFired {
		t.Fatal("B did not fire")
	}
}

func TestCanceledEventsAreRecycled(t *testing.T) {
	e := NewEngine()
	ref := e.After(5, PriorityDefault, func(Time) { t.Fatal("canceled event fired") })
	ref.Cancel()
	e.After(1, PriorityDefault, func(Time) {})
	e.Run()
	if got := len(e.free); got != 2 {
		t.Fatalf("free pool has %d events, want 2 (one canceled, one fired)", got)
	}
	if ref.Pending() {
		t.Fatal("collected canceled event still pending")
	}
}

func TestAtArgPassesPayload(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	p1, p2 := &payload{1}, &payload{2}
	var got []int
	h := func(_ Time, arg any) { got = append(got, arg.(*payload).n) }
	e.AfterArg(2, PriorityDefault, h, p2)
	e.AfterArg(1, PriorityDefault, h, p1)
	if _, err := e.AtArg(-1, PriorityDefault, h, p1); err == nil {
		t.Fatal("AtArg accepted a past event")
	}
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// TestEngineSteadyStateZeroAlloc pins the free-list property: once the
// pool is warm, the schedule→fire→recycle cycle performs no allocations.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	nop := func(Time) {}
	// Each event requests two same-instant follow-ups, as a state change
	// requests a scheduling iteration: the second bubbles ahead of the
	// first in the lane, and both must come from the pool too.
	h := func(Time) {
		e.After(0, PrioritySchedule, nop)
		e.After(0, PriorityEnd, nop)
	}
	// Warm the pool past the loop's concurrent event count.
	for i := 0; i < 64; i++ {
		e.After(Duration(i), PriorityDefault, h)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			e.After(Duration(i%8), PriorityDefault, h)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state engine churn allocates %.1f per cycle, want 0", allocs)
	}
}
