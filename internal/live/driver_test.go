package live

import (
	"context"
	"testing"
	"time"

	"cosched/internal/sim"
)

// TestDriverWakesOnlyForEarlierEvents: the run loop sleeps toward its
// engine's next event, so an Unlock or Do that leaves nothing due before
// that instant sends the loop no wake-up, and one that schedules an event at
// the present instant sends exactly one. Each step runs one pass of the loop
// first (Run on a canceled context plans its sleep, then returns), so the
// wake channel holds only what the step's own call sent.
func TestDriverWakesOnlyForEarlierEvents(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng, 1)
	clk := newStepClock()
	clk.pace(d)
	at := func(when sim.Time) func() {
		return func() {
			if _, err := eng.At(when, sim.PriorityDefault, func(sim.Time) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	at(100)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, step := range []struct {
		name  string
		call  func()
		wakes int
	}{
		{"an Unlock that schedules nothing", func() { d.Lock(); d.Unlock() }, 0},
		{"a Do that schedules nothing", func() { d.Do(func() {}) }, 0},
		{"a Do that schedules after the planned instant", func() { d.Do(at(200)) }, 0},
		{"a Do that schedules at the planned instant", func() { d.Do(at(100)) }, 0},
		{"a Do that schedules at the present instant", func() { d.Do(at(0)) }, 1},
		// The pass fires the event at 0 and plans toward 100 again.
		{"an Unlock after the loop fired what was due", func() { d.Lock(); d.Unlock() }, 0},
		// The clock reaches 100 before the loop's timer fires: the Lock
		// fires the events at 100, and one scheduled at the present instant
		// is due although it is not before the planned instant.
		{"a Do that schedules at the planned instant once it is the present", func() {
			clk.Advance(100 * time.Second)
			<-d.wake // the clock step's own wake-up
			d.Do(at(100))
		}, 1},
	} {
		for len(d.wake) > 0 {
			<-d.wake
		}
		d.Run(ctx)
		step.call()
		if got := len(d.wake); got != step.wakes {
			t.Fatalf("%s sent %d wake-up(s) to a loop planned for 100, want %d", step.name, got, step.wakes)
		}
	}

	// A loop that found nothing to do plans no instant: the next event
	// scheduled, whenever it is due, wakes it.
	idle := NewDriver(sim.NewEngine(), 1)
	newStepClock().pace(idle)
	for len(idle.wake) > 0 {
		<-idle.wake
	}
	idle.Run(ctx)
	idle.Do(func() {
		if _, err := idle.eng.At(5000, sim.PriorityDefault, func(sim.Time) {}); err != nil {
			t.Fatal(err)
		}
	})
	if got := len(idle.wake); got != 1 {
		t.Fatalf("a Do that schedules the idle loop's only event sent %d wake-up(s), want 1", got)
	}
}
