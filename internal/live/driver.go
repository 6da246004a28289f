// Package live runs a simulation engine against the wall clock, turning
// the trace-driven resource manager into a long-running daemon: the same
// Manager code that powers the simulator serves real submissions and real
// peer traffic in cmd/coschedd.
//
// Virtual time advances at a configurable speedup (1.0 = real time;
// 60.0 = one virtual minute per wall second, handy for demos), and all
// engine/manager access from other goroutines (the proto server, the admin
// interface) is serialized through the driver's lock.
package live

import (
	"context"
	"math"
	"sync"
	"time"

	"cosched/internal/sim"
)

// Driver paces a sim.Engine against its clock. The run loop sleeps until
// the next event is due; a caller that touches the engine wakes it only if
// the engine's next event is now earlier than the instant the loop planned
// to wake at, or already due, so a call that schedules nothing new costs
// the loop nothing.
type Driver struct {
	mu      sync.Mutex
	eng     *sim.Engine
	speedup float64
	start   time.Time // clock instant Run began pacing
	base    sim.Time  // virtual instant at start — nonzero after a recovery
	wake    chan struct{}
	// planned is the virtual instant of the event the run loop's last pass
	// left it sleeping toward, or noneDue when the engine was empty. Read
	// and written under mu.
	planned sim.Time
	// passes counts the run loop's passes. Read and written under mu.
	passes int

	// now is where the live stack reads time: the driver's pacing and the
	// breaker of every peer link Daemon.Connect creates. It is time.Now;
	// tests step a clock of their own.
	now func() time.Time
}

// NewDriver wraps eng. speedup is virtual seconds per wall second and must
// be positive.
func NewDriver(eng *sim.Engine, speedup float64) *Driver {
	if speedup <= 0 {
		panic("live: speedup must be positive")
	}
	return &Driver{
		eng:     eng,
		speedup: speedup,
		now:     time.Now,
		wake:    make(chan struct{}, 1),
		planned: noneDue,
	}
}

// noneDue is the planned instant of a run loop that found no event: any
// event scheduled after that pass is earlier.
const noneDue sim.Time = math.MaxInt64

// Lock acquires the driver's lock and catches the engine up to the current
// virtual instant (firing any due events), so externally triggered actions
// — peer RPCs, admin submissions — observe and record the right virtual
// time. Use it (or Do) around every touch of the engine or the manager
// from outside the run loop.
func (d *Driver) Lock() {
	d.mu.Lock()
	d.syncClockLocked()
}

// syncClockLocked advances the engine to the clock-implied virtual time.
func (d *Driver) syncClockLocked() {
	if d.start.IsZero() {
		return // Run not started; engine time is authoritative
	}
	if v := d.virtualNowLocked(); v > d.eng.Now() {
		d.eng.RunUntil(v)
	}
}

// fireDueLocked fires every event due at the present virtual instant,
// including those at the engine's own instant, which syncClockLocked leaves
// for the run loop. An admin submit or cancel calls it after scheduling its
// work, so the scheduling decision that work requests runs on the caller's
// goroutine, under the lock the caller holds, before the caller answers.
// Before Run starts it fires nothing: the loop's first pass does.
func (d *Driver) fireDueLocked() {
	if d.start.IsZero() {
		return
	}
	d.eng.RunUntil(max(d.virtualNowLocked(), d.eng.Now()))
}

// Unlock releases the driver's lock. It wakes the run loop only when the
// engine's next event is now earlier than the instant the loop planned to
// wake at, or already due — a submission, which schedules an iteration at
// the present instant, does; a probe or an expect that schedules nothing
// does not.
func (d *Driver) Unlock() {
	wake := d.loopLateLocked()
	d.mu.Unlock()
	if wake {
		d.nudge()
	}
}

// Do runs f under the driver's lock (with the clock synced) and releases
// it as Unlock does.
func (d *Driver) Do(f func()) {
	d.Lock()
	f()
	d.Unlock()
}

// loopLateLocked reports whether the run loop, asleep, would fire the
// engine's next event late: the event falls before the loop's planned
// instant, or it is due already. The second case is a loop whose clock
// reached the planned instant before its timer fired — a timer expires
// some scheduling latency after its instant — when a caller's Lock has
// fired the planned event and the caller scheduled more at the present
// instant.
func (d *Driver) loopLateLocked() bool {
	next, ok := d.eng.NextTime()
	return ok && (next < d.planned || next <= d.eng.Now())
}

// afterLocked returns a channel that receives once the driver's clock
// reads dur past the engine's present instant, which the lock caught up to
// the clock when it was taken: an event on the engine, dur's virtual span
// ahead, that the run loop fires when its clock gets there. A wait on it
// reads the clock the driver paces by, so a test's stepped clock drives it
// as it drives the scheduler. Call it under the driver's lock.
func (d *Driver) afterLocked(dur time.Duration) <-chan struct{} {
	fired := make(chan struct{}, 1)
	span := max(1, sim.Duration(math.Ceil(dur.Seconds()*d.speedup)))
	d.eng.After(span, sim.PriorityDefault, func(sim.Time) { fired <- struct{}{} })
	return fired
}

func (d *Driver) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// VirtualNow returns the current virtual time implied by the clock
// (not necessarily the engine clock, which only moves when events fire).
// Valid once Run has started.
func (d *Driver) VirtualNow() sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.virtualNowLocked()
}

func (d *Driver) virtualNowLocked() sim.Time {
	if d.start.IsZero() {
		return d.eng.Now()
	}
	return virtualAt(d.start, d.base, d.speedup, d.now())
}

// virtualAt is the virtual instant a driver that began pacing at clock
// instant start, from virtual instant base, at speedup, reads at now:
// whole virtual seconds, truncated. Pacing resumes from wherever the
// engine stood when Run began — after a crash recovery that is the
// replayed journal time, not zero.
func virtualAt(start time.Time, base sim.Time, speedup float64, now time.Time) sim.Time {
	return base + sim.Time(now.Sub(start).Seconds()*speedup)
}

// sleepUntil is how long such a driver sleeps from now until virtual time
// reaches next: the first clock instant at which virtualAt reads next,
// minus now. It is computed from the untruncated clock, so a loop 0.9 s
// into a virtual second sleeps 0.1 s toward the next one, not the whole
// second the truncated reading leaves. An event already due sleeps 0.
func sleepUntil(start time.Time, base sim.Time, speedup float64, now time.Time, next sim.Time) time.Duration {
	if virtualAt(start, base, speedup, now) >= next {
		return 0
	}
	ns := math.Ceil(float64(next-base) / speedup * float64(time.Second))
	if ns >= 1<<53 {
		// Beyond a float's exact nanoseconds (104 days of sleep): a timer
		// armed with it never fires, and the loop waits for a wake-up.
		return time.Duration(math.MaxInt64)
	}
	at := start.Add(time.Duration(ns))
	// The quotient's rounding can leave at a nanosecond or two either side
	// of the instant virtualAt first reads next; step onto it. Both walks
	// are short, and the second stops at now at the latest, which reads
	// less than next.
	for virtualAt(start, base, speedup, at) < next {
		at = at.Add(time.Nanosecond)
	}
	for virtualAt(start, base, speedup, at.Add(-time.Nanosecond)) >= next {
		at = at.Add(-time.Nanosecond)
	}
	return at.Sub(now)
}

// Run paces the engine until ctx is canceled. Events fire when the scaled
// clock reaches their virtual time; the loop sleeps in between, and is woken
// early by a Do or Unlock that left an event before its planned instant or
// one already due. An empty engine sleeps until such a wake-up.
//
// The sleep is not capped. The timer and the pacing read one clock: Go
// times a timer on the monotonic clock, and virtualAt measures from start on
// the monotonic readings time.Now carries, so a step of the wall clock
// moves neither and there is no drift for a periodic re-check to correct.
func (d *Driver) Run(ctx context.Context) {
	d.mu.Lock()
	if d.start.IsZero() {
		d.start = d.now()
		d.base = d.eng.Now()
	}
	d.mu.Unlock()
	// One timer for the loop's life: it is re-armed on every pass, and a
	// time.After per pass was three allocations each. It starts unarmed: a
	// timer of 0 fires at once, and under go 1.22's asynchronous timer
	// channels that expiry can land after the first pass's drain and wake
	// an idle loop a second time.
	timer := time.NewTimer(time.Duration(math.MaxInt64))
	defer timer.Stop()
	for {
		d.mu.Lock()
		d.passes++
		now := d.now()
		vnow := virtualAt(d.start, d.base, d.speedup, now)
		sleep := time.Duration(math.MaxInt64) // an empty engine waits for a wake-up
		for {
			next, ok := d.eng.NextTime()
			if !ok {
				d.planned = noneDue
				break
			}
			if next <= vnow {
				d.eng.Step()
				continue
			}
			d.planned = next
			sleep = sleepUntil(d.start, d.base, d.speedup, now, next)
			break
		}
		d.mu.Unlock()
		// Stop-and-drain before Reset: a nudge may have ended the last sleep
		// with the timer's expiry still unread.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-ctx.Done():
			return
		case <-d.wake:
		case <-timer.C:
		}
	}
}
