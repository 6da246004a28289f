// Package peerlink maintains a resilient connection to one remote
// coscheduling domain: a self-healing proto.Exchanger that wraps the wire
// client (internal/proto) with lazy dialing, exponential backoff between
// redials, a circuit breaker, per-call deadline budgets, and transport/
// remote error classification. A Link speaks the typed peer vocabulary
// (cosched.Peer and its extensions) through its embedded proto.Caller, so a
// live daemon hands it to its manager as the peer.
//
// The design target is Algorithm 1's fault-tolerance rule ("status
// unknown ⇒ start normally"), which only degrades *gracefully* if a dead
// peer fails *fast*. A naive redial-per-call peer makes every scheduling
// iteration of a healthy domain block on a full TCP dial timeout while
// its partner is down — thousands of nodes idling behind one connect
// syscall. A Link instead fails instantly whenever the breaker is open, a
// redial is gated by backoff, or another dial is already in flight; the
// scheduler absorbs the error as "status unknown" and moves on in
// microseconds.
//
// Error classification is the second half of the contract: a remote
// application error (proto.RemoteError — the peer answered "no") proves
// the connection is healthy and must never tear it down, while a
// transport error retires the underlying proto.Client (it may be framing-
// desynced) and counts toward the breaker. Transport failures that
// provably died before the request left this host (dial/deadline/write
// stage) are retried once on a fresh connection within the call's budget;
// ambiguous read-stage failures are retried only for the methods
// proto.Idempotent names.
//
// The breaker state machine:
//
//	Closed ──(FailThreshold consecutive transport failures)──▶ Open
//	Open ──(Cooldown elapsed; next call becomes the probe)──▶ HalfOpen
//	HalfOpen ──(probe succeeds)──▶ Closed   (counters reset)
//	HalfOpen ──(probe fails)──▶ Open        (fresh cooldown)
//
// While Open, every call fails in O(1) with ErrCircuitOpen. While
// HalfOpen, exactly one call is admitted as the probe; concurrent calls
// fail fast. Backoff gates dial attempts in the Closed state (a link can
// be disconnected without being tripped — e.g. right after a peer
// restart): after k consecutive dial failures the next attempt waits
// min(BackoffBase·2^(k-1), BackoffMax), scaled by a deterministic seeded
// jitter factor in [0.5, 1), and calls arriving inside the gate fail
// instantly.
//
// Wall-clock reads are confined to Link.now, which Config.Now overrides: a
// Link is the live daemons' transport, and a test that runs one under a
// simulation injects the engine's virtual clock. (Simulations themselves
// call their peers through proto.Server.InProcessConn and use no Link.)
package peerlink

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"cosched/internal/proto"
)

// State is the circuit-breaker state of a Link.
type State int

const (
	// Closed is the healthy state: calls flow (dialing lazily as needed).
	Closed State = iota
	// Open means the breaker tripped: calls fail instantly until the
	// cooldown elapses.
	Open
	// HalfOpen admits exactly one probe call; its outcome decides between
	// Closed and a fresh Open cooldown.
	HalfOpen
)

// String returns "closed", "open", or "half-open".
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Transport is the connection a Link manages: an Exchanger it can close —
// the wire client (proto.Client) in production, or a one-method fake in
// tests. The whole protocol, extensions included, crosses it as requests.
type Transport interface {
	proto.Exchanger
	Close() error
}

// Fast-fail sentinels. Each maps to "status unknown" at the Algorithm 1
// call site, exactly like any other peer error — the point is that they
// surface in microseconds instead of a dial timeout.
var (
	// ErrCircuitOpen is returned while the breaker is open (or while a
	// half-open probe is already in flight).
	ErrCircuitOpen = errors.New("peerlink: circuit open")
	// ErrDialBackoff is returned when a redial is gated by the backoff
	// timer.
	ErrDialBackoff = errors.New("peerlink: redial gated by backoff")
	// ErrDialBusy is returned when another goroutine's dial is in flight.
	ErrDialBusy = errors.New("peerlink: dial already in flight")
)

// Config parameterizes a Link. Name is required; Addr is required unless
// Dial is overridden.
type Config struct {
	// Name is the remote domain's name (PeerName returns it without
	// touching the network).
	Name string
	// Addr is the remote daemon's peer-protocol address.
	Addr string
	// DialTimeout bounds one TCP connect (default 2s).
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline budget: it bounds each round
	// trip on the wire and caps how late a retry may still be issued
	// (default 2s). Decoupled from DialTimeout — a short dial bound with a
	// longer call budget leaves room to redial and retry within one call.
	CallTimeout time.Duration
	// FailThreshold is the number of consecutive transport failures that
	// trips the breaker (default 3).
	FailThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// BackoffBase is the delay gate after the first failed dial
	// (default 50ms); it doubles per consecutive failure up to BackoffMax
	// (default 10s), scaled by deterministic jitter in [0.5, 1).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MinHealthy is how long a connection must stay up before the dial
	// backoff window resets (default 1s; negative resets immediately on
	// any successful dial). Without it, a flapping peer that accepts the
	// TCP connect and dies on the first call would clear the accumulated
	// backoff exponent on every dial, collapsing the schedule back to
	// BackoffBase and turning the gate into a tight redial loop.
	MinHealthy time.Duration
	// Seed seeds the jitter stream (splitmix64), making backoff schedules
	// reproducible.
	Seed uint64
	// Logger, if set, records connects, disconnects, and breaker
	// transitions.
	Logger *log.Logger
	// OnStateChange, if set, is invoked (outside the link's lock) after
	// every breaker transition; cause is nil on recovery.
	OnStateChange func(name string, from, to State, cause error)
	// Dial overrides the transport constructor (tests, net.Pipe links).
	// The default dials Addr with proto.DialTimeouts.
	Dial func(addr string, dialTimeout, callTimeout time.Duration) (Transport, error)
	// Now overrides the clock (tests). The default reads the wall clock.
	Now func() time.Time
}

// Link is a resilient proto.Exchanger over one remote domain, and a
// cosched.Peer through its Caller. Safe for concurrent use: the live daemon
// calls it from the scheduler (under the driver lock), the status server
// snapshots it from HTTP goroutines, and tests probe it directly.
type Link struct {
	proto.Caller
	cfg Config

	mu     sync.Mutex
	state  State
	client Transport
	gen    uint64 // bumped on every connect and discard; stale-failure guard
	rng    uint64 // jitter stream

	consecFails int       // transport failures since the last success
	dialFails   int       // consecutive dial failures (backoff exponent)
	nextDialAt  time.Time // backoff gate; zero = no gate
	connectedAt time.Time // when the current connection was dialed; zero = none
	reopenAt    time.Time // when Open may admit a half-open probe
	probing     bool      // a half-open probe call is in flight
	dialing     bool      // a dial is in flight

	// Counters for Snapshot.
	calls, successes  int
	remoteErrs        int
	transportErrs     int
	fastFails         int
	retries           int
	dials, dialErrs   int
	trips, breakConns int
	lastErr           string
}

// New builds a Link. Zero-valued Config durations and thresholds take the
// documented defaults.
func New(cfg Config) *Link {
	if cfg.Name == "" {
		panic("peerlink: Config.Name is required")
	}
	if cfg.Addr == "" && cfg.Dial == nil {
		panic("peerlink: Config.Addr is required unless Dial is overridden")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	if cfg.MinHealthy == 0 {
		cfg.MinHealthy = time.Second
	}
	l := &Link{cfg: cfg, rng: cfg.Seed}
	l.Caller = proto.Caller{Exchanger: l}
	return l
}

// now reads the link's clock.
func (l *Link) now() time.Time {
	if l.cfg.Now != nil {
		return l.cfg.Now()
	}
	//simlint:allow R2 backoff gates and breaker cooldowns pace wall-clock redials to a real peer daemon; simulation harnesses inject a virtual clock via Config.Now
	return time.Now()
}

// nextRand draws a uniform value in [0, 1) from the seeded jitter stream.
// Callers hold l.mu.
func (l *Link) nextRand() float64 {
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// backoffLocked returns the gate delay after the k-th consecutive dial
// failure (k ≥ 1): min(base·2^(k-1), max) scaled by jitter in [0.5, 1).
func (l *Link) backoffLocked(k int) time.Duration {
	d := l.cfg.BackoffBase
	for i := 1; i < k; i++ {
		d *= 2
		if d >= l.cfg.BackoffMax || d <= 0 { // <= 0: overflow
			d = l.cfg.BackoffMax
			break
		}
	}
	if d > l.cfg.BackoffMax {
		d = l.cfg.BackoffMax
	}
	return d/2 + time.Duration(float64(d/2)*l.nextRand())
}

// setStateLocked transitions the breaker and returns a thunk that fires
// the logger and OnStateChange hook — call it after releasing l.mu.
func (l *Link) setStateLocked(to State, cause error) func() {
	from := l.state
	if from == to {
		return nil
	}
	l.state = to
	if to == Open {
		l.trips++
	}
	name, logger, cb := l.cfg.Name, l.cfg.Logger, l.cfg.OnStateChange
	return func() {
		if logger != nil {
			logger.Printf("peerlink %s: breaker %s -> %s (%v)", name, from, to, cause)
		}
		if cb != nil {
			cb(name, from, to, cause)
		}
	}
}

func fire(fs ...func()) {
	for _, f := range fs {
		if f != nil {
			f()
		}
	}
}

// recordFailureLocked does breaker accounting for one transport failure
// (call or dial) and returns the state-change thunk, if any.
func (l *Link) recordFailureLocked(err error) func() {
	l.transportErrs++
	l.lastErr = err.Error()
	l.consecFails++
	if l.probing || l.state == HalfOpen {
		// The half-open probe failed: straight back to open.
		l.probing = false
		l.reopenAt = l.now().Add(l.cfg.Cooldown)
		return l.setStateLocked(Open, err)
	}
	if l.state == Closed && l.consecFails >= l.cfg.FailThreshold {
		l.reopenAt = l.now().Add(l.cfg.Cooldown)
		return l.setStateLocked(Open, err)
	}
	return nil
}

// maybeResetBackoffLocked clears the dial-backoff window once the current
// connection has proven itself healthy for MinHealthy. Callers hold l.mu.
func (l *Link) maybeResetBackoffLocked(now time.Time) {
	if l.client == nil || l.dialFails == 0 {
		return
	}
	if l.cfg.MinHealthy > 0 && now.Sub(l.connectedAt) < l.cfg.MinHealthy {
		return
	}
	l.dialFails = 0
	l.nextDialAt = time.Time{}
}

// acquire returns a connected transport (dialing if necessary) or fails
// fast. The returned generation identifies the connection for the
// stale-failure guard in discard.
func (l *Link) acquire() (Transport, uint64, error) {
	l.mu.Lock()
	now := l.now()
	l.maybeResetBackoffLocked(now)
	var probed func() // Open -> HalfOpen notification, fired in order
	switch l.state {
	case Open:
		if now.Before(l.reopenAt) {
			l.fastFails++
			wait := l.reopenAt.Sub(now)
			l.mu.Unlock()
			return nil, 0, fmt.Errorf("peerlink %s: %w (probe in %v)", l.cfg.Name, ErrCircuitOpen, wait)
		}
		// Cooldown elapsed: this call becomes the half-open probe.
		probed = l.setStateLocked(HalfOpen, nil)
		l.probing = true
	case HalfOpen:
		if l.probing {
			l.fastFails++
			l.mu.Unlock()
			return nil, 0, fmt.Errorf("peerlink %s: %w (probe in flight)", l.cfg.Name, ErrCircuitOpen)
		}
		l.probing = true
	}
	if t := l.client; t != nil {
		gen := l.gen
		l.mu.Unlock()
		fire(probed)
		return t, gen, nil
	}
	if l.dialing {
		l.fastFails++
		l.probing = false // a busy dial cannot carry the probe
		l.mu.Unlock()
		fire(probed)
		return nil, 0, fmt.Errorf("peerlink %s: %w", l.cfg.Name, ErrDialBusy)
	}
	if l.state == Closed && now.Before(l.nextDialAt) {
		l.fastFails++
		wait := l.nextDialAt.Sub(now)
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("peerlink %s: %w (next attempt in %v)", l.cfg.Name, ErrDialBackoff, wait)
	}
	l.dialing = true
	l.dials++
	l.mu.Unlock()

	var t Transport
	var err error
	if l.cfg.Dial != nil {
		t, err = l.cfg.Dial(l.cfg.Addr, l.cfg.DialTimeout, l.cfg.CallTimeout)
	} else {
		t, err = proto.DialTimeouts(l.cfg.Addr, l.cfg.DialTimeout, l.cfg.CallTimeout)
	}

	l.mu.Lock()
	l.dialing = false
	if err != nil {
		l.dialErrs++
		l.dialFails++
		l.nextDialAt = l.now().Add(l.backoffLocked(l.dialFails))
		f := l.recordFailureLocked(err)
		l.mu.Unlock()
		fire(probed, f)
		return nil, 0, err
	}
	l.gen++
	gen := l.gen
	l.client = t
	l.connectedAt = l.now()
	if l.cfg.MinHealthy < 0 {
		l.dialFails = 0
		l.nextDialAt = time.Time{}
	}
	// With MinHealthy active, the accumulated backoff exponent survives
	// the successful dial; maybeResetBackoffLocked clears it only once
	// the connection has stayed up for the minimum healthy duration. A
	// peer that accepts connects and dies on the first call therefore
	// keeps climbing the schedule instead of resetting to BackoffBase.
	logger := l.cfg.Logger
	l.mu.Unlock()
	fire(probed)
	if logger != nil {
		logger.Printf("peerlink %s: connected to %s", l.cfg.Name, l.cfg.Addr)
	}
	return t, gen, nil
}

// discard retires a transport after a call-level transport failure. The
// generation guard keeps a burst of concurrent failures on one dead
// connection from counting more than once toward the breaker.
func (l *Link) discard(t Transport, gen uint64, err error) {
	t.Close()
	l.mu.Lock()
	if l.client != t || l.gen != gen {
		l.mu.Unlock() // another call already handled this connection
		return
	}
	l.client = nil
	l.gen++
	f := l.recordFailureLocked(err)
	logger := l.cfg.Logger
	l.mu.Unlock()
	fire(f)
	if logger != nil {
		logger.Printf("peerlink %s: connection retired: %v (will redial)", l.cfg.Name, err)
	}
}

// onSuccess resets failure accounting and closes the breaker.
func (l *Link) onSuccess() {
	l.mu.Lock()
	l.successes++
	l.consecFails = 0
	l.probing = false
	l.maybeResetBackoffLocked(l.now())
	f := l.setStateLocked(Closed, nil)
	l.mu.Unlock()
	fire(f)
}

// noteRemote records a remote application error: the connection answered,
// so it is healthy — no discard, no breaker accounting, and the success
// resets the consecutive-failure streak.
func (l *Link) noteRemote() {
	l.mu.Lock()
	l.remoteErrs++
	l.consecFails = 0
	l.probing = false
	f := l.setStateLocked(Closed, nil)
	l.mu.Unlock()
	fire(f)
}

// retryAllowed decides whether a failed first attempt may be replayed on a
// fresh connection: only while the breaker stayed closed, only within the
// call's deadline budget, and — for non-idempotent calls — only when the
// request provably never reached the peer.
func (l *Link) retryAllowed(err error, idempotent bool, deadline time.Time) bool {
	if !idempotent && proto.RequestMayHaveReached(err) {
		return false
	}
	l.mu.Lock()
	closed := l.state == Closed
	l.mu.Unlock()
	return closed && l.now().Before(deadline)
}

// Exchange implements proto.Exchanger: one request through the full
// failure machinery — acquire a connection (or fail fast), send, and on a
// transport failure retry once on a fresh connection when
// proto.Idempotent(req.Method) or the failure stage says it is safe.
func (l *Link) Exchange(req proto.Request) (proto.Response, error) {
	l.mu.Lock()
	l.calls++
	l.mu.Unlock()
	deadline := l.now().Add(l.cfg.CallTimeout)

	t, gen, err := l.acquire()
	if err != nil {
		return proto.Response{}, err
	}
	resp, err := l.attempt(t, gen, req)
	if err == nil || proto.IsRemote(err) || !l.retryAllowed(err, proto.Idempotent(req.Method), deadline) {
		return resp, err
	}
	t, gen, err2 := l.acquire()
	if err2 != nil {
		return resp, err // the first attempt's error is the informative one
	}
	l.mu.Lock()
	l.retries++
	l.mu.Unlock()
	return l.attempt(t, gen, req)
}

// attempt sends req once on t and books the outcome: a success or a remote
// refusal proves the connection healthy; a transport failure retires it.
func (l *Link) attempt(t Transport, gen uint64, req proto.Request) (proto.Response, error) {
	resp, err := t.Exchange(req)
	switch {
	case err == nil:
		l.onSuccess()
	case proto.IsRemote(err):
		l.noteRemote()
	default:
		l.discard(t, gen, err)
	}
	return resp, err
}

// BreakConn force-closes the current connection without recording a
// transport failure — the chaos harness's "the network cut the wire"
// primitive. The next call sees a dead connection and redials.
func (l *Link) BreakConn() {
	l.mu.Lock()
	t := l.client
	if t != nil {
		l.client = nil
		l.gen++
		l.breakConns++
	}
	l.mu.Unlock()
	if t != nil {
		t.Close()
	}
}

// Close retires the current connection and stops the link (subsequent
// calls redial; Close exists for orderly daemon shutdown).
func (l *Link) Close() error {
	l.mu.Lock()
	t := l.client
	l.client = nil
	if t != nil {
		l.gen++
	}
	l.mu.Unlock()
	if t != nil {
		return t.Close()
	}
	return nil
}

// State returns the breaker state.
func (l *Link) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Probe issues one ping through the link's full failure machinery — the
// way an operator (or a test) drives a tripped breaker through its
// half-open probe without waiting for scheduler traffic.
func (l *Link) Probe() error {
	_, err := l.Exchange(proto.Request{Method: proto.MethodPing})
	return err
}

// PeerName implements proto.Exchanger from configuration — never the
// network.
func (l *Link) PeerName() string { return l.cfg.Name }
