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
	// Drop invokes the injector's dropper (WithDrops) so the forwarded
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

// CallScript supplies a scheduled directive per intercepted call, in call
// order — the deterministic, replayable alternative to the probabilistic
// With* modes (internal/faultplan implements it from a seeded plan).
// NextCall is invoked under the injector's lock, exactly once per call.
type CallScript interface {
	NextCall() CallDirective
}

// FaultInjector wraps an Exchanger and injects a deterministic, seeded
// stream of chaos — the middleware used to exercise Algorithm 1's
// fault-tolerance path ("status unknown ⇒ start normally") under partial
// failures, without killing the peer entirely. Three independent modes
// compose per call, in a fixed order so the stream stays reproducible (same
// seed and call sequence ⇒ same chaos):
//
//  1. latency (WithLatency): sleep before forwarding, simulating a slow
//     network — only meaningful on the live/wire path, where it exercises
//     per-call deadline budgets;
//  2. connection drop (WithDrops): invoke a caller-supplied dropper
//     (typically peerlink.Link.BreakConn or a conn.Close) before
//     forwarding, so the forwarded call hits a dead connection;
//  3. injected failure (the NewFaultInjector rate): fail the call outright
//     with ErrInjected.
//
// Whatever it wraps — a Client, a peerlink.Link, or a Server around a
// manager the simulation calls directly — the draw happens once per request,
// so a combined probe_mate costs one draw whichever way the answer is then
// gathered. The typed vocabulary comes from the embedded Caller.
//
// A scheduled CallScript (WithScript) composes on top: its directive is
// consulted first and merged with the probabilistic draws, which happen in
// the same fixed order whether or not a script is present, so rate-only
// injectors reproduce their historical streams exactly.
//
// Safe for concurrent use once configured: live daemons call peers from
// several goroutines. Configuration (WithLatency, WithDrops, WithScript)
// must finish before the first call.
type FaultInjector struct {
	Caller
	inner Exchanger
	// rate is the failure probability per call, in [0, 1].
	rate float64
	// latencyRate/latency: injected-delay probability and duration.
	latencyRate float64
	latency     time.Duration
	// dropRate/dropper: connection-drop probability and the hook that cuts
	// the wire.
	dropRate float64
	dropper  func()
	// script, if set, supplies one scheduled directive per call.
	script CallScript

	mu sync.Mutex
	// state is a splitmix64 stream (kept local to avoid importing the
	// workload package from the protocol layer).
	state uint64

	calls      int
	failed     int
	delayed    int
	dropped    int
	duplicated int
}

// NewFaultInjector wraps inner, failing each call with the given
// probability. Rates outside [0, 1] are clamped.
func NewFaultInjector(inner Exchanger, rate float64, seed uint64) *FaultInjector {
	f := &FaultInjector{inner: inner, rate: clampRate(rate), state: seed}
	f.Caller = Caller{f}
	return f
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// WithLatency adds injected latency: each call sleeps for d with the given
// probability before being forwarded. Returns f for chaining. Configure
// before the first call.
func (f *FaultInjector) WithLatency(rate float64, d time.Duration) *FaultInjector {
	f.latencyRate = clampRate(rate)
	f.latency = d
	return f
}

// WithDrops adds connection drops: with the given probability, dropper is
// invoked (cutting the underlying connection) before the call is
// forwarded, so the forwarded call exercises the dead-conn path. Returns f
// for chaining. Configure before the first call.
func (f *FaultInjector) WithDrops(rate float64, dropper func()) *FaultInjector {
	f.dropRate = clampRate(rate)
	f.dropper = dropper
	return f
}

// WithScript adds a scheduled fault script: every call consults
// script.NextCall and merges the directive with the probabilistic modes.
// A Drop directive requires a dropper (set via WithDrops; the drop *rate*
// may be zero). Returns f for chaining. Configure before the first call.
func (f *FaultInjector) WithScript(script CallScript) *FaultInjector {
	f.script = script
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

// next draws a uniform value in [0, 1). Callers hold f.mu.
func (f *FaultInjector) next() float64 {
	f.state += 0x9e3779b97f4a7c15
	z := f.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// outcome is intercept's decision for one call: an error to surface
// without forwarding, or a duplicate-delivery flag Exchange honors after the
// first forward.
type outcome struct {
	err error
	dup bool
}

// intercept applies the configured chaos to one call: the scheduled
// script's directive (if any) merged with the probabilistic modes —
// latency, then a connection drop, then an injected failure. Draws happen
// in a fixed order under the lock (and only for enabled modes, so
// rate-only injectors reproduce the exact historical stream); the sleep
// and the drop run outside it.
func (f *FaultInjector) intercept() outcome {
	f.mu.Lock()
	f.calls++
	var d CallDirective
	if f.script != nil {
		d = f.script.NextCall()
	}
	if f.latencyRate > 0 && f.next() < f.latencyRate && f.latency > d.Delay {
		d.Delay = f.latency
	}
	if f.dropRate > 0 && f.next() < f.dropRate {
		d.Drop = true
	}
	if f.rate > 0 && f.next() < f.rate {
		d.Fail = true
	}
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
		//simlint:allow R2 injected wire latency is a real sleep by design: it exercises per-call deadline budgets on the live path, and the chaos campaign's scripted ramps (at most 150 µs a call) pace its simulation against the wall too
		time.Sleep(d.Delay)
	}
	if drop {
		f.dropper()
	}
	return outcome{err: err, dup: dup}
}

// PeerName implements Exchanger.
func (f *FaultInjector) PeerName() string { return f.inner.PeerName() }

// Exchange implements Exchanger: one chaos draw per request, then the
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
