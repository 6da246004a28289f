package peerlink_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
)

// fakeConn is a scriptable Transport: fail decides each exchange's fate;
// otherwise it answers as a healthy peer whose mate is queuing and
// startable.
type fakeConn struct {
	id   int
	fail func(c *fakeConn, method string) error

	mu     sync.Mutex
	closed bool
}

func (c *fakeConn) PeerName() string { return "fake" }

func (c *fakeConn) Exchange(req proto.Request) (proto.Response, error) {
	if c.fail != nil {
		if err := c.fail(c, req.Method); err != nil {
			return proto.Response{}, err
		}
	}
	return proto.Response{Domain: "fake", Known: true, Status: cosched.StatusQueuing.String(), OK: true}, nil
}

func (c *fakeConn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *fakeConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// harness provides a fake clock and a scriptable dialer.
type harness struct {
	mu      sync.Mutex
	clock   time.Time
	dialErr error // non-nil: dials fail with this
	onConn  func(c *fakeConn, method string) error
	dials   int
	conns   []*fakeConn
}

func newHarness() *harness {
	return &harness{clock: time.Unix(1_000_000, 0)}
}

func (h *harness) now() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.clock
}

func (h *harness) advance(d time.Duration) {
	h.mu.Lock()
	h.clock = h.clock.Add(d)
	h.mu.Unlock()
}

func (h *harness) setDialErr(err error) {
	h.mu.Lock()
	h.dialErr = err
	h.mu.Unlock()
}

func (h *harness) dial(addr string, dialTimeout, callTimeout time.Duration) (peerlink.Transport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dials++
	if h.dialErr != nil {
		return nil, &proto.TransportError{Stage: proto.StageDial, Err: h.dialErr}
	}
	c := &fakeConn{id: h.dials, fail: h.onConn}
	h.conns = append(h.conns, c)
	return c, nil
}

func (h *harness) dialCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials
}

func (h *harness) lastConn() *fakeConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.conns) == 0 {
		return nil
	}
	return h.conns[len(h.conns)-1]
}

func newTestLink(h *harness, mutate func(*peerlink.Config)) *peerlink.Link {
	cfg := peerlink.Config{
		Name:          "mate",
		Addr:          "test:0",
		DialTimeout:   time.Second,
		CallTimeout:   2 * time.Second,
		FailThreshold: 3,
		Cooldown:      5 * time.Second,
		BackoffBase:   100 * time.Millisecond,
		BackoffMax:    time.Second,
		Seed:          42,
		Dial:          h.dial,
		Now:           h.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return peerlink.New(cfg)
}

func TestBreakerOpensAfterConsecutiveDialFailures(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("connection refused"))
	l := newTestLink(h, nil)

	// Three dial attempts (spaced past the backoff gates) trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := l.GetMateStatus(1); err == nil {
			t.Fatalf("call %d against dead peer succeeded", i)
		}
		h.advance(2 * time.Second) // beyond any backoff gate
	}
	if l.State() != peerlink.Open {
		t.Fatalf("state = %v after %d failures, want open", l.State(), 3)
	}
	dials := h.dialCount()
	if dials != 3 {
		t.Fatalf("dials = %d, want 3", dials)
	}

	// While open (the advance above consumed 2s of the 5s cooldown), calls
	// fail instantly with ErrCircuitOpen and never touch the dialer.
	for i := 0; i < 10; i++ {
		_, err := l.GetMateStatus(1)
		if !errors.Is(err, peerlink.ErrCircuitOpen) {
			t.Fatalf("open-breaker error = %v, want ErrCircuitOpen", err)
		}
	}
	// The combined probe — the call Run_Job actually makes — fails as fast.
	if _, err := l.ProbeMate(1); !errors.Is(err, peerlink.ErrCircuitOpen) {
		t.Fatalf("open-breaker ProbeMate error = %v, want ErrCircuitOpen", err)
	}
	if h.dialCount() != dials {
		t.Fatalf("open breaker dialed: %d -> %d", dials, h.dialCount())
	}
	snap := l.Snapshot()
	if snap.State != "open" || snap.Trips != 1 || snap.FastFails < 11 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestBackoffGatesRedialsBetweenFailures(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	l := newTestLink(h, func(c *peerlink.Config) { c.FailThreshold = 100 }) // keep breaker out of the way

	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("dead dial succeeded")
	}
	// Immediately after a failed dial the gate is in effect: the next call
	// fails fast with ErrDialBackoff, without a dial.
	dials := h.dialCount()
	_, err := l.GetMateStatus(1)
	if !errors.Is(err, peerlink.ErrDialBackoff) {
		t.Fatalf("gated error = %v, want ErrDialBackoff", err)
	}
	if h.dialCount() != dials {
		t.Fatal("gated call dialed anyway")
	}
	// Past the gate (max backoff for one failure is BackoffBase), a real
	// attempt happens again.
	h.advance(150 * time.Millisecond)
	if _, err := l.GetMateStatus(1); errors.Is(err, peerlink.ErrDialBackoff) {
		t.Fatalf("expired gate still failing fast: %v", err)
	}
	if h.dialCount() != dials+1 {
		t.Fatalf("dials = %d, want %d", h.dialCount(), dials+1)
	}
}

func TestHalfOpenProbeClosesOnSuccess(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	var transitions []string
	l := newTestLink(h, func(c *peerlink.Config) {
		c.OnStateChange = func(name string, from, to peerlink.State, cause error) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		}
	})
	for i := 0; i < 3; i++ {
		l.GetMateStatus(1)
		h.advance(time.Second)
	}
	if l.State() != peerlink.Open {
		t.Fatalf("state = %v, want open", l.State())
	}

	// Heal the peer; the breaker stays open until the cooldown elapses.
	h.setDialErr(nil)
	if _, err := l.GetMateStatus(1); !errors.Is(err, peerlink.ErrCircuitOpen) {
		t.Fatalf("pre-cooldown error = %v, want ErrCircuitOpen", err)
	}
	h.advance(10 * time.Second)
	st, err := l.GetMateStatus(1)
	if err != nil || st != cosched.StatusQueuing {
		t.Fatalf("probe call = %v, %v", st, err)
	}
	if l.State() != peerlink.Closed {
		t.Fatalf("state after successful probe = %v, want closed", l.State())
	}
	snap := l.Snapshot()
	if !snap.Connected || snap.ConsecutiveFailures != 0 {
		t.Fatalf("snapshot after recovery = %+v", snap)
	}
	// Subsequent calls reuse the connection.
	dials := h.dialCount()
	for i := 0; i < 5; i++ {
		if _, err := l.GetMateStatus(1); err != nil {
			t.Fatal(err)
		}
	}
	if h.dialCount() != dials {
		t.Fatal("healthy link redialed")
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(transitions) != 3 || transitions[0] != want[0] || transitions[1] != want[1] || transitions[2] != want[2] {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	l := newTestLink(h, nil)
	for i := 0; i < 3; i++ {
		l.GetMateStatus(1)
		h.advance(time.Second)
	}
	h.advance(10 * time.Second) // past cooldown; peer still dead
	if _, err := l.GetMateStatus(1); errors.Is(err, peerlink.ErrCircuitOpen) {
		t.Fatalf("probe was fast-failed: %v", err)
	}
	if l.State() != peerlink.Open {
		t.Fatalf("state after failed probe = %v, want open", l.State())
	}
	if snap := l.Snapshot(); snap.Trips != 2 {
		t.Fatalf("trips = %d, want 2", snap.Trips)
	}
	// And the fresh cooldown fast-fails again.
	if _, err := l.GetMateStatus(1); !errors.Is(err, peerlink.ErrCircuitOpen) {
		t.Fatalf("post-reopen error = %v, want ErrCircuitOpen", err)
	}
}

// TestRemoteErrorKeepsConnection pins the satellite-bug fix: the old
// lazyPeer.drop tore down the cached client on *any* error, including a
// remote manager answering "no such job" — which forced a full redial on
// the next scheduling iteration. Remote application errors must leave the
// connection (and the breaker) untouched.
func TestRemoteErrorKeepsConnection(t *testing.T) {
	h := newHarness()
	h.onConn = func(c *fakeConn, method string) error {
		if method == proto.MethodStartMate {
			return &proto.RemoteError{Method: method, Msg: "job 9 is not holding"}
		}
		return nil
	}
	l := newTestLink(h, nil)
	if _, err := l.GetMateStatus(1); err != nil {
		t.Fatal(err)
	}
	conn := h.lastConn()
	for i := 0; i < 20; i++ { // far past FailThreshold
		err := l.StartMate(9)
		if !proto.IsRemote(err) {
			t.Fatalf("StartMate error = %v, want RemoteError", err)
		}
	}
	if conn.Closed() {
		t.Fatal("remote application error tore down a healthy connection")
	}
	if h.dialCount() != 1 {
		t.Fatalf("dials = %d, want 1 (no redial on remote errors)", h.dialCount())
	}
	if l.State() != peerlink.Closed {
		t.Fatalf("state = %v, want closed (remote errors never trip the breaker)", l.State())
	}
	snap := l.Snapshot()
	if snap.RemoteErrors != 20 || snap.TransportErrors != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestWriteStageFailureRetriesOnFreshConn(t *testing.T) {
	h := newHarness()
	h.onConn = func(c *fakeConn, method string) error {
		if c.id == 1 {
			return &proto.TransportError{Method: method, Stage: proto.StageWrite,
				Err: errors.New("use of closed network connection")}
		}
		return nil
	}
	l := newTestLink(h, nil)
	// First call: conn 1 dies at write stage, the retry dials conn 2 and
	// succeeds — the caller never sees the blip. TryStartMate is safe here
	// too: a write-stage failure provably never reached the peer.
	ok, err := l.TryStartMate(5)
	if err != nil || !ok {
		t.Fatalf("TryStartMate through a dropped conn = %v, %v", ok, err)
	}
	if h.dialCount() != 2 {
		t.Fatalf("dials = %d, want 2 (original + retry)", h.dialCount())
	}
	if !h.conns[0].Closed() {
		t.Fatal("failed conn not closed")
	}
	snap := l.Snapshot()
	if snap.Retries != 1 || snap.Successes != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if l.State() != peerlink.Closed {
		t.Fatalf("state = %v", l.State())
	}
}

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	h := newHarness()
	a := newTestLink(h, nil)
	b := newTestLink(h, nil)
	c := newTestLink(h, func(cfg *peerlink.Config) { cfg.Seed = 99 })
	base, max := 100*time.Millisecond, time.Second
	var diverged bool
	for k := 1; k <= 12; k++ {
		da, db, dc := a.BackoffForTest(k), b.BackoffForTest(k), c.BackoffForTest(k)
		if da != db {
			t.Fatalf("same seed diverged at k=%d: %v vs %v", k, da, db)
		}
		if da != dc {
			diverged = true
		}
		full := base << (k - 1)
		if full > max || full <= 0 {
			full = max
		}
		if da < full/2 || da >= full {
			t.Fatalf("backoff(k=%d) = %v outside [%v, %v)", k, da, full/2, full)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// TestOpenBreakerFailFastLatency is the acceptance bound: with the peer
// down and the breaker open, a coscheduling query returns in well under a
// millisecond — the scheduler absorbs "status unknown" without stalling.
func TestOpenBreakerFailFastLatency(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	l := newTestLink(h, nil)
	for i := 0; i < 3; i++ {
		l.GetMateStatus(1)
		h.advance(time.Second)
	}
	if l.State() != peerlink.Open {
		t.Fatalf("state = %v, want open", l.State())
	}
	const n = 1000
	//simlint:allow R2 measuring real fail-fast latency of the open breaker; no simulation time involved
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := l.GetMateStatus(1); !errors.Is(err, peerlink.ErrCircuitOpen) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	//simlint:allow R2 measuring real fail-fast latency of the open breaker; no simulation time involved
	elapsed := time.Since(start)
	if avg := elapsed / n; avg > time.Millisecond {
		t.Fatalf("open-breaker call averaged %v, want <1ms", avg)
	}
}

func BenchmarkOpenBreakerFailFast(b *testing.B) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	l := newTestLink(h, nil)
	for i := 0; i < 3; i++ {
		l.GetMateStatus(1)
		h.advance(time.Second)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.GetMateStatus(1)
	}
}

func TestBreakConnForcesTransparentRedial(t *testing.T) {
	h := newHarness()
	l := newTestLink(h, nil)
	if _, err := l.GetMateStatus(1); err != nil {
		t.Fatal(err)
	}
	first := h.lastConn()
	l.BreakConn()
	if !first.Closed() {
		t.Fatal("BreakConn left the connection open")
	}
	// The next call simply dials a fresh connection; no failure recorded.
	if _, err := l.GetMateStatus(1); err != nil {
		t.Fatalf("call after BreakConn: %v", err)
	}
	snap := l.Snapshot()
	if snap.BreakConns != 1 || snap.TransportErrors != 0 || snap.Dials != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestConcurrentCallsAndSnapshots(t *testing.T) {
	h := newHarness()
	l := newTestLink(h, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					l.GetMateStatus(job.ID(i))
				case 1:
					l.GetMateJob(job.ID(i))
				case 2:
					l.Snapshot()
				case 3:
					if g == 0 && i%40 == 3 {
						l.BreakConn()
					} else {
						l.CanStartMate(job.ID(i))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if l.State() != peerlink.Closed {
		t.Fatalf("state = %v after healthy concurrent traffic", l.State())
	}
}

func TestPeerNameIsConfigured(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("refused"))
	l := newTestLink(h, nil)
	// PeerName never touches the network — even with the peer down.
	if l.PeerName() != "mate" {
		t.Fatalf("PeerName = %q", l.PeerName())
	}
}

// TestBackoffSurvivesFlappyDialUntilMinHealthy pins the satellite-bug fix:
// the old acquire path reset dialFails to zero the moment a dial succeeded,
// so a flapping peer (accepts the TCP connect, dies on the first call)
// collapsed the exponential schedule back to BackoffBase on every flap and
// the link hammered it at the minimum interval forever. The backoff
// exponent must survive a successful dial until the connection has stayed
// healthy for MinHealthy.
func TestBackoffSurvivesFlappyDialUntilMinHealthy(t *testing.T) {
	h := newHarness()
	h.setDialErr(errors.New("connection refused"))
	l := newTestLink(h, func(cfg *peerlink.Config) {
		cfg.FailThreshold = 100 // keep the breaker out of the way
		// MinHealthy left at its 1s default: that is the behavior under test.
	})

	// Accumulate three dial failures; the exponent is now 3.
	for i := 0; i < 3; i++ {
		if _, err := l.GetMateStatus(1); err == nil {
			t.Fatalf("call %d against dead peer succeeded", i)
		}
		h.advance(2 * time.Second) // beyond any backoff gate
	}
	if h.dialCount() != 3 {
		t.Fatalf("dials = %d, want 3", h.dialCount())
	}

	// The peer flaps: the dial succeeds, then the connection dies on the
	// very first call. (The write-stage failure is retried once on a fresh
	// conn, which also dies — two dials, both short-lived.)
	h.setDialErr(nil)
	h.onConn = func(c *fakeConn, method string) error {
		return &proto.TransportError{Method: method, Stage: proto.StageWrite,
			Err: errors.New("connection reset by peer")}
	}
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call on flapping peer succeeded")
	}
	if h.dialCount() != 5 {
		t.Fatalf("dials = %d, want 5 (flap + one retry on a fresh conn)", h.dialCount())
	}

	// Peer back to refusing outright. Neither flap connection lived
	// MinHealthy, so this failure must continue the old schedule at
	// exponent 4 — a gate of at least base*2^3/2 = 400ms even at minimum
	// jitter — not restart it at backoff(1) < 100ms as the old code did.
	h.setDialErr(errors.New("connection refused"))
	h.onConn = nil
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call against dead peer succeeded")
	}
	h.advance(150 * time.Millisecond) // past backoff(1), far short of backoff(4)
	dials := h.dialCount()
	if _, err := l.GetMateStatus(1); !errors.Is(err, peerlink.ErrDialBackoff) {
		t.Fatalf("error after flap = %v, want ErrDialBackoff (exponent must survive the flap)", err)
	}
	if h.dialCount() != dials {
		t.Fatal("gated call dialed anyway")
	}

	// The gate still expires: one more failure at the continued exponent.
	h.advance(time.Second)
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call against dead peer succeeded")
	}
	if h.dialCount() != dials+1 {
		t.Fatalf("dials = %d, want %d (gate should have expired)", h.dialCount(), dials+1)
	}

	// Now the peer genuinely recovers. The first successful dial does NOT
	// clear the window; only MinHealthy of proven uptime does.
	h.setDialErr(nil)
	h.advance(2 * time.Second) // past the accumulated gate
	if _, err := l.GetMateStatus(1); err != nil {
		t.Fatalf("call on recovered peer failed: %v", err)
	}
	h.advance(1500 * time.Millisecond) // > MinHealthy of uptime
	if _, err := l.GetMateStatus(1); err != nil {
		t.Fatalf("call on recovered peer failed: %v", err)
	}

	// With the window reset, a fresh outage restarts the schedule at
	// backoff(1) < 100ms: a failure followed by a 150ms wait must redial.
	l.BreakConn()
	h.setDialErr(errors.New("connection refused"))
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call against dead peer succeeded")
	}
	h.advance(150 * time.Millisecond)
	dials = h.dialCount()
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call against dead peer succeeded")
	}
	if h.dialCount() != dials+1 {
		t.Fatalf("dials = %d, want %d (reset window should gate at backoff(1) < 150ms)", h.dialCount(), dials+1)
	}
}
