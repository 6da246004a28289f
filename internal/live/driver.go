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
	"sync"
	"time"

	"cosched/internal/sim"
)

// Driver paces a sim.Engine against the wall clock.
type Driver struct {
	mu      sync.Mutex
	eng     *sim.Engine
	speedup float64
	start   time.Time // wall instant Run began pacing
	base    sim.Time  // virtual instant at start — nonzero after a recovery
	wake    chan struct{}
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
		wake:    make(chan struct{}, 1),
	}
}

// Lock acquires the driver's lock and catches the engine up to the current
// virtual instant (firing any due events), so externally triggered actions
// — peer RPCs, admin submissions — observe and record the right virtual
// time. Use it (or Do) around every touch of the engine or the manager
// from outside the run loop.
func (d *Driver) Lock() {
	d.mu.Lock()
	d.syncClockLocked()
}

// syncClockLocked advances the engine to the wall-implied virtual time.
func (d *Driver) syncClockLocked() {
	if d.start.IsZero() {
		return // Run not started; engine time is authoritative
	}
	if v := d.virtualNowLocked(); v > d.eng.Now() {
		d.eng.RunUntil(v)
	}
}

// Unlock releases the driver's lock and nudges the run loop so newly
// scheduled events are noticed immediately.
func (d *Driver) Unlock() {
	d.mu.Unlock()
	d.nudge()
}

// Do runs f under the driver's lock (with the clock synced) and wakes the
// run loop.
func (d *Driver) Do(f func()) {
	d.Lock()
	f()
	d.mu.Unlock()
	d.nudge()
}

func (d *Driver) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// VirtualNow returns the current virtual time implied by the wall clock
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
	// Pacing resumes from wherever the engine stood when Run began — after
	// a crash recovery that is the replayed journal time, not zero.
	return d.base + sim.Time(time.Since(d.start).Seconds()*d.speedup)
}

// Run paces the engine until ctx is canceled. Events fire when the scaled
// wall clock reaches their virtual time; the loop sleeps in between and is
// woken early by Do/Unlock.
func (d *Driver) Run(ctx context.Context) {
	d.mu.Lock()
	if d.start.IsZero() {
		d.start = time.Now()
		d.base = d.eng.Now()
	}
	d.mu.Unlock()
	// One timer for the loop's life: every admin and peer call nudges the
	// loop, and a time.After per wake-up was three allocations each.
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		d.mu.Lock()
		vnow := d.virtualNowLocked()
		var sleep time.Duration
		for {
			next, ok := d.eng.NextTime()
			if !ok {
				sleep = 100 * time.Millisecond // idle poll; wake channel shortcuts this
				break
			}
			if next <= vnow {
				d.eng.Step()
				continue
			}
			sleep = time.Duration(float64(next-vnow) / d.speedup * float64(time.Second))
			if sleep > time.Second {
				sleep = time.Second // re-check periodically for clock drift
			}
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
