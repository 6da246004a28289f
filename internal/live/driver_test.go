package live

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cosched/internal/config"
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

// TestSleepUntilIsExact: the run loop sleeps until the clock instant at
// which virtual time reaches the next event, measured from the untruncated
// clock. A loop 0.9 s into virtual second S with an event at S+1 sleeps
// 0.1 s; the whole-second reading it used to start from armed 1.0 s, so
// every timer fired up to a virtual second late.
func TestSleepUntilIsExact(t *testing.T) {
	start := time.Unix(1<<30, 0)
	const s = 41 // virtual seconds since pacing began
	for _, c := range []struct {
		name    string
		base    sim.Time
		speedup float64
		now     time.Duration // since start
		next    sim.Time
		want    time.Duration
	}{
		{"0.9 s into second S, event at S+1", 0, 1, s*time.Second + 900*time.Millisecond, s + 1, 100 * time.Millisecond},
		{"at second S, event at S+1", 0, 1, s * time.Second, s + 1, time.Second},
		{"0.1 s into second S, event at S+3", 0, 1, s*time.Second + 100*time.Millisecond, s + 3, 2900 * time.Millisecond},
		{"recovered at base 1000, speedup 60", 1000, 60, 500 * time.Millisecond, 1031, 16666667},
		{"speedup 0.5", 0, 0.5, 2500 * time.Millisecond, 2, 1500 * time.Millisecond},
		{"event already due", 0, 1, s*time.Second + 900*time.Millisecond, s, 0},
	} {
		now := start.Add(c.now)
		if got := sleepUntil(start, c.base, c.speedup, now, c.next); got != c.want {
			t.Errorf("%s: sleep %v, want %v", c.name, got, c.want)
		}
		if v := virtualAt(start, c.base, c.speedup, now.Add(c.want)); c.want > 0 && v != c.next {
			t.Errorf("%s: after the sleep the driver reads %d, want %d", c.name, v, c.next)
		}
	}

	// Exactness over awkward speedups and offsets: the wake-up instant is
	// the first nanosecond at which the driver reads next, so a loop woken
	// there fires the event and never re-arms a zero sleep toward it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		speedup := []float64{1, 3, 7, 60, 0.3, 1000 / 3.0}[i%6]
		base := sim.Time(rng.Int63n(1 << 20))
		now := start.Add(time.Duration(rng.Int63n(int64(1000 * time.Hour))))
		next := virtualAt(start, base, speedup, now) + 1 + sim.Time(rng.Int63n(100))
		at := now.Add(sleepUntil(start, base, speedup, now, next))
		if !at.After(now) || virtualAt(start, base, speedup, at) < next || virtualAt(start, base, speedup, at.Add(-1)) >= next {
			t.Fatalf("speedup %v base %d now +%v next %d: woke at +%v, reading %d (one ns earlier %d)",
				speedup, base, now.Sub(start), next, at.Sub(start),
				virtualAt(start, base, speedup, at), virtualAt(start, base, speedup, at.Add(-1)))
		}
	}
	if got := sleepUntil(start, 0, 1, start, 1<<62); got < time.Hour {
		t.Fatalf("an event 1<<62 virtual seconds ahead: sleep %v, want beyond any cap", got)
	}
}

// TestIdleLoopSleeps: the run loop of a daemon with nothing scheduled makes
// its first pass and then sleeps until a call schedules something, however
// much wall time goes by: a 100 ms poll of an empty engine would make ten
// passes a wall second for nothing. No call or clock step reaches this
// daemon, so the loop's timer is all that could wake it: the test watches
// the wall clock because the poll it rules out was timed on it.
func TestIdleLoopSleeps(t *testing.T) {
	dom := startTestDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "idle", Nodes: 8, Scheme: "hold"}, Speedup: 1})
	const window = 300 * time.Millisecond
	time.Sleep(window)
	if passes, _ := passesOf(dom.driver); passes > 1 {
		t.Fatalf("an idle daemon's run loop made %d passes in %v, %.0f a wall second; want its first pass only",
			passes, window, float64(passes)/window.Seconds())
	}
}
