package proto

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the error surfaced by a FaultInjector on a failed call.
var ErrInjected = errors.New("proto: injected fault")

// CallDirective tells a FaultInjector what to do with one intercepted
// call. The zero value forwards the call untouched.
type CallDirective struct {
	// Delay sleeps before forwarding (slow link).
	Delay time.Duration
	// Drop invokes the injector's dropper, if it has one, so the forwarded
	// call hits a dead connection.
	Drop bool
	// Duplicate forwards the call a second time after the first and
	// discards the duplicate's result — at-least-once delivery; the peer
	// must tolerate the repeat without corrupting state.
	Duplicate bool
	// Fail fails the call outright with ErrInjected (one-way partition:
	// only this direction's injector is scripted).
	Fail bool
}

// CallScript supplies a directive per intercepted call, in call order:
// RateScript draws them from a seed, internal/faultplan replays them from
// a plan. NextCall is invoked under the injector's lock, exactly once per
// call.
type CallScript interface {
	NextCall() CallDirective
}

// Rates are the per-call probabilities a RateScript draws against. A rate
// of 0 or less never fires and one of 1 or more always does.
type Rates struct {
	Fail    float64
	Drop    float64
	Latency float64
	// Delay is what a latency hit sleeps.
	Delay time.Duration
}

// RateScript is the seeded, probabilistic CallScript. Per call it draws
// latency, then a drop, then a failure, each only when its rate is
// positive, so the same seed and rates give the same directives and a
// failure-only script takes one draw a call.
type RateScript struct {
	rates Rates
	// state is a splitmix64 stream (kept local to avoid importing the
	// workload package from the protocol layer).
	state uint64
}

// NewRateScript returns the script drawing r from seed.
func NewRateScript(seed uint64, r Rates) *RateScript {
	return &RateScript{rates: r, state: seed}
}

// NextCall implements CallScript.
func (s *RateScript) NextCall() CallDirective {
	var d CallDirective
	if s.rates.Latency > 0 && s.next() < s.rates.Latency {
		d.Delay = s.rates.Delay
	}
	d.Drop = s.rates.Drop > 0 && s.next() < s.rates.Drop
	d.Fail = s.rates.Fail > 0 && s.next() < s.rates.Fail
	return d
}

// next draws a uniform value in [0, 1).
func (s *RateScript) next() float64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// FaultInjector wraps an Exchanger and applies one CallScript's directive
// to every request — the middleware used to exercise Algorithm 1's
// fault-tolerance path ("status unknown ⇒ start normally") under partial
// failures, without killing the peer entirely. A directive may delay the
// call (only meaningful on the live/wire path, where it exercises per-call
// deadline budgets), cut the connection under it through the dropper, fail
// it with ErrInjected, or deliver it twice.
//
// Whatever it wraps — a Client, a peerlink.Link, or a Server around a
// manager the simulation calls directly — the script is consulted once per
// request, so a combined probe_mate costs one directive whichever way the
// answer is then gathered. The typed vocabulary comes from the embedded
// Caller.
//
// Safe for concurrent use: live daemons call peers from several
// goroutines, and the script is consulted under the injector's lock.
type FaultInjector struct {
	Caller
	inner  Exchanger
	script CallScript
	// dropper cuts the wire under a Drop directive; nil performs no drop.
	dropper func()

	mu         sync.Mutex
	calls      int
	failed     int
	delayed    int
	dropped    int
	duplicated int
}

// NewFaultInjector wraps inner, applying script's directive to every call.
// dropper, typically peerlink.Link.BreakConn, may be nil: a Drop directive
// is then not performed.
func NewFaultInjector(inner Exchanger, script CallScript, dropper func()) *FaultInjector {
	f := &FaultInjector{inner: inner, script: script, dropper: dropper}
	f.Caller = Caller{f}
	return f
}

// Calls returns the number of intercepted calls.
func (f *FaultInjector) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Failed returns how many calls were failed outright.
func (f *FaultInjector) Failed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

// Delayed returns how many calls had latency injected.
func (f *FaultInjector) Delayed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delayed
}

// Dropped returns how many calls had the connection cut under them.
func (f *FaultInjector) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Duplicated returns how many calls were delivered twice.
func (f *FaultInjector) Duplicated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.duplicated
}

// outcome is intercept's decision for one call: an error to surface
// without forwarding, or a duplicate-delivery flag Exchange honors after the
// first forward.
type outcome struct {
	err error
	dup bool
}

// intercept takes the script's directive for one call and counts it under
// the lock; the sleep and the drop run outside it.
func (f *FaultInjector) intercept() outcome {
	f.mu.Lock()
	f.calls++
	d := f.script.NextCall()
	if d.Delay > 0 {
		f.delayed++
	}
	drop := d.Drop && f.dropper != nil
	if drop {
		f.dropped++
	}
	var err error
	if d.Fail {
		f.failed++
		err = fmt.Errorf("%w (call %d)", ErrInjected, f.calls)
	}
	dup := d.Duplicate && err == nil // a failed call never reached the peer, so nothing to duplicate
	if dup {
		f.duplicated++
	}
	f.mu.Unlock()
	if d.Delay > 0 {
		//simlint:allow R2 injected wire latency is a real sleep by design: it exercises per-call deadline budgets on the live path
		time.Sleep(d.Delay)
	}
	if drop {
		f.dropper()
	}
	return outcome{err: err, dup: dup}
}

// PeerName implements Exchanger.
func (f *FaultInjector) PeerName() string { return f.inner.PeerName() }

// Exchange implements Exchanger: one directive per request, then the
// request is forwarded — and, on a Duplicate directive, forwarded again with
// the repeat's answer discarded (at-least-once delivery: a state-changing
// repeat must be absorbed, e.g. an already-running mate reports started
// without re-starting, which is what the chaos campaign verifies).
func (f *FaultInjector) Exchange(req Request) (Response, error) {
	o := f.intercept()
	if o.err != nil {
		return Response{}, o.err
	}
	resp, err := f.inner.Exchange(req)
	if o.dup {
		f.inner.Exchange(req)
	}
	return resp, err
}
