package proto

import (
	"bytes"
	"errors"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
)

// TestBrokenClientFailsFastAfterTimeout pins the connection-poisoning fix:
// before it, a single timed-out call left a late response in the stream
// and every subsequent call died on "sequence mismatch" forever. Now the
// first transport failure breaks the client, and later calls fail
// instantly with ErrBrokenConn instead of consuming the stale frame.
func TestBrokenClientFailsFastAfterTimeout(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	release := make(chan struct{})
	go func() {
		defer serverEnd.Close()
		var req Request
		if err := ReadFrame(serverEnd, &req); err != nil {
			return
		}
		<-release // answer only after the client's deadline has fired
		_ = WriteFrame(serverEnd, &Response{Seq: req.Seq, Status: "queuing"})
	}()

	c := NewClient(clientEnd, 50*time.Millisecond)
	_, err := c.GetMateStatus(1)
	if err == nil {
		t.Fatal("call against a stalled server succeeded")
	}
	if IsRemote(err) {
		t.Fatalf("timeout classified as remote: %v", err)
	}
	if !c.Broken() {
		t.Fatal("client not broken after a transport failure")
	}
	close(release) // the late response now exists; it must never be read

	// Every later call fails fast with ErrBrokenConn — not a sequence
	// mismatch against the stale frame, and without touching the conn.
	for i := 0; i < 3; i++ {
		_, err := c.GetMateStatus(1)
		if !errors.Is(err, ErrBrokenConn) {
			t.Fatalf("call %d after break: %v, want ErrBrokenConn", i, err)
		}
		if ErrorStage(err) != StageBroken {
			t.Fatalf("stage = %q, want %q", ErrorStage(err), StageBroken)
		}
	}
}

func TestRemoteErrorDoesNotBreakClient(t *testing.T) {
	backend := newFakeBackend()
	backend.fail = true
	c := pipePair(t, backend)
	for i := 0; i < 3; i++ {
		_, err := c.GetMateStatus(1)
		if !IsRemote(err) {
			t.Fatalf("backend error = %v, want RemoteError", err)
		}
	}
	if c.Broken() {
		t.Fatal("remote application errors broke the client")
	}
	// The connection still works once the backend recovers.
	backend.mu.Lock()
	backend.fail = false
	backend.mu.Unlock()
	if _, err := c.GetMateStatus(1); err != nil {
		t.Fatalf("call after backend recovery: %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err        error
		stage      string
		remote     bool
		mayReached bool
	}{
		{&TransportError{Stage: StageDial, Err: errors.New("refused")}, StageDial, false, false},
		{&TransportError{Stage: StageDeadline, Err: errors.New("x")}, StageDeadline, false, false},
		{&TransportError{Stage: StageWrite, Err: errors.New("x")}, StageWrite, false, false},
		{&TransportError{Stage: StageRead, Err: errors.New("x")}, StageRead, false, true},
		{&TransportError{Stage: StageBroken, Err: ErrBrokenConn}, StageBroken, false, false},
		{&RemoteError{Method: MethodStartMate, Msg: "not holding"}, "", true, true},
		{errors.New("mystery"), "", false, true},
	}
	for _, tc := range cases {
		if got := ErrorStage(tc.err); got != tc.stage {
			t.Errorf("ErrorStage(%v) = %q, want %q", tc.err, got, tc.stage)
		}
		if got := IsRemote(tc.err); got != tc.remote {
			t.Errorf("IsRemote(%v) = %v, want %v", tc.err, got, tc.remote)
		}
		if got := RequestMayHaveReached(tc.err); got != tc.mayReached {
			t.Errorf("RequestMayHaveReached(%v) = %v, want %v", tc.err, got, tc.mayReached)
		}
	}
}

// TestFaultInjectorConcurrent exercises the injector from many goroutines;
// run under -race (ci.sh does) it pins the fix for the unsynchronized
// calls/failed/state mutation the injector shipped with.
func TestFaultInjectorConcurrent(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	var dropped sync.Map
	f := NewFaultInjector(NewServer(backend, nil, nil),
		NewRateScript(99, Rates{Fail: 0.2, Latency: 0.1, Delay: time.Microsecond, Drop: 0.1}),
		func() { dropped.Store("hit", true) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					f.GetMateStatus(1)
				case 1:
					f.GetMateJob(job.ID(i))
				case 2:
					f.Calls()
					f.Failed()
					f.Delayed()
					f.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	calls := f.Calls()
	if want := 8 * 200 * 2 / 3; calls < want {
		t.Fatalf("calls = %d, want ≥ %d", calls, want)
	}
	if f.Failed() == 0 || f.Delayed() == 0 || f.Dropped() == 0 {
		t.Fatalf("chaos counters = fail %d, delay %d, drop %d; want all > 0",
			f.Failed(), f.Delayed(), f.Dropped())
	}
}

func TestFaultInjectorLatencyMode(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	const d = 20 * time.Millisecond
	f := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(1, Rates{Latency: 1, Delay: d}), nil)
	//simlint:allow R2 measuring real injected wire latency, not simulation time
	start := time.Now()
	if _, err := f.GetMateStatus(1); err != nil {
		t.Fatal(err)
	}
	//simlint:allow R2 measuring real injected wire latency, not simulation time
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("rate-1 latency injector took %v, want ≥ %v", elapsed, d)
	}
	if f.Delayed() != 1 || f.Failed() != 0 {
		t.Fatalf("delayed = %d, failed = %d", f.Delayed(), f.Failed())
	}
}

func TestFaultInjectorDropMode(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	var drops int
	f := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(1, Rates{Drop: 1}), func() { drops++ })
	for i := 0; i < 5; i++ {
		// Drops cut the wire but do not fail the forwarded call themselves.
		if _, err := f.GetMateStatus(1); err != nil {
			t.Fatal(err)
		}
	}
	if drops != 5 || f.Dropped() != 5 {
		t.Fatalf("dropper ran %d times, Dropped() = %d; want 5", drops, f.Dropped())
	}
}

// TestFaultInjectorModeDeterminism: with all three modes enabled, two
// injectors with the same seed produce identical chaos streams.
func TestFaultInjectorModeDeterminism(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	mk := func() *FaultInjector {
		return NewFaultInjector(NewServer(backend, nil, nil),
			NewRateScript(7, Rates{Fail: 0.3, Latency: 0.2, Drop: 0.2}), func() {})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		a.GetMateStatus(1)
		b.GetMateStatus(1)
	}
	if a.Failed() != b.Failed() || a.Delayed() != b.Delayed() || a.Dropped() != b.Dropped() {
		t.Fatalf("streams diverged: a = (%d, %d, %d), b = (%d, %d, %d)",
			a.Failed(), a.Delayed(), a.Dropped(), b.Failed(), b.Delayed(), b.Dropped())
	}
}

// blockingBackend parks GetMateStatus until released, so tests can hold a
// handler in flight while racing Server.Close against it.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) PeerName() string                  { return "blocking" }
func (b *blockingBackend) GetMateJob(job.ID) (bool, error)   { return true, nil }
func (b *blockingBackend) CanStartMate(job.ID) (bool, error) { return true, nil }
func (b *blockingBackend) TryStartMate(job.ID) (bool, error) { return true, nil }
func (b *blockingBackend) StartMate(job.ID) error            { return nil }

func (b *blockingBackend) GetMateStatus(job.ID) (cosched.MateStatus, error) {
	b.entered <- struct{}{}
	<-b.release
	return cosched.StatusQueuing, nil
}

// TestServerCloseRacesInFlightHandler closes the server while a handler is
// parked inside the backend and a client is blocked mid-call. Close must
// cut the connection, drain the handler, and leave no goroutines behind;
// the client must surface a clean transport error (the conn died), not a
// hang or a garbled frame.
func TestServerCloseRacesInFlightHandler(t *testing.T) {
	before := runtime.NumGoroutine()

	bb := &blockingBackend{entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(bb, nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	callErr := make(chan error, 1)
	go func() {
		_, err := c.GetMateStatus(1)
		callErr <- err
	}()
	<-bb.entered // the handler is now parked inside the backend

	closeDone := make(chan struct{})
	go func() {
		srv.Close() // races the in-flight handler; blocks until it drains
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still in the backend")
	//simlint:allow R2 bounding a real shutdown race; no simulation clock in this test
	case <-time.After(50 * time.Millisecond):
	}
	close(bb.release) // let the handler finish; its write hits a dead conn

	select {
	case <-closeDone:
	//simlint:allow R2 bounding a real shutdown race; no simulation clock in this test
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler drained")
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("mid-call client survived server shutdown")
		}
		if IsRemote(err) {
			t.Fatalf("shutdown surfaced as remote error: %v", err)
		}
		if !c.Broken() {
			t.Fatal("client not broken after its server died mid-call")
		}
	//simlint:allow R2 bounding a real shutdown race; no simulation clock in this test
	case <-time.After(5 * time.Second):
		t.Fatal("client call hung across server shutdown")
	}

	// New connections are refused: the accept loop is gone.
	if _, err := Dial(addr.String(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after Close")
	}

	// No goroutine leak: everything the server spawned has exited.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 { // +2: this test's own helpers may linger briefly
			break
		}
		if i > 200 {
			t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		//simlint:allow R2 polling real goroutine teardown after a TCP shutdown
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAcceptorRetriesAfterFailedAccept: an accept error other than a closed
// listener (EMFILE: the process is out of descriptors) is logged and
// retried, so the next connection is still served instead of queueing
// unanswered in the backlog of a listener nobody accepts on.
func TestAcceptorRetriesAfterFailedAccept(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	ln := &fakeListener{
		errs:   []error{&net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}},
		conn:   serverEnd,
		closed: make(chan struct{}),
	}
	var logged bytes.Buffer
	srv := NewServer(newFakeBackend(), nil, nil)
	srv.acc.start(ln, log.New(&logged, "", 0), srv.ServeConn)
	c := NewClient(clientEnd, 5*time.Second)
	if name, err := c.Ping(); err != nil || name != "fake" {
		t.Fatalf("ping after a failed accept = %q, %v", name, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.Contains(logged.String(), syscall.EMFILE.Error()) {
		t.Errorf("accept error not logged; log = %q", logged.String())
	}
}

// fakeListener returns errs from its first Accepts, then conn once, then
// blocks until Close. Only the accept loop calls Accept.
type fakeListener struct {
	errs   []error
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *fakeListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *fakeListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServerCloseIdleClient: a connected but idle client's next call after
// Close fails cleanly (the server closed the conn under it).
func TestServerCloseIdleClient(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	srv := NewServer(backend, nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.GetMateStatus(1); err == nil {
		t.Fatal("call on a server-closed conn succeeded")
	} else if IsRemote(err) {
		t.Fatalf("conn teardown surfaced as remote error: %v", err)
	}
	if !c.Broken() {
		t.Fatal("client not broken after server-side close")
	}
}
