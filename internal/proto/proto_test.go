package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Seq: 42, Method: MethodGetMateStatus, JobID: 7}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed length
	var out Request
	if err := ReadFrame(&buf, &out); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Seq: 1, Method: MethodPing}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	var out Request
	if err := ReadFrame(bytes.NewReader(short), &out); err == nil {
		t.Fatal("truncated frame parsed successfully")
	}
}

// countingWriter records every Write it receives.
type countingWriter struct{ writes [][]byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write (a
// frame costs one syscall on a socket, one rendezvous on a net.Pipe), and
// an oversized frame is refused before any byte is written.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	in := Request{Seq: 9, Method: MethodProbeMate, JobID: 4242}
	if err := WriteFrame(&w, &in); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("WriteFrame made %d writes, want 1", len(w.writes))
	}
	frame := w.writes[0]
	payload, _ := json.Marshal(&in)
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 || !bytes.Equal(frame[4:], payload) {
		t.Fatalf("frame = % x: header says %d, payload %q; want json.Marshal's %q", frame, n, frame[4:], payload)
	}
	var out Request
	if err := ReadFrame(bytes.NewReader(frame), &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("read back %+v, %v", out, err)
	}

	w.writes = nil
	big := Request{From: strings.Repeat("x", MaxFrameSize)}
	if err := WriteFrame(&w, &big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	if len(w.writes) != 0 {
		t.Fatalf("oversized frame wrote %d chunk(s) before failing", len(w.writes))
	}
	// The pooled scratch must not leak one frame's bytes into the next.
	if err := WriteFrame(&w, &in); err != nil || len(w.writes) != 1 || !bytes.Equal(w.writes[0], frame) {
		t.Fatalf("frame after a refused one = % x, %v; want the first frame again", w.writes, err)
	}
}

// countingReader counts the Reads that reach the underlying stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderSplitAndCoalesced: a FrameReader reassembles a frame that
// arrives one byte per Read, and serves two frames that arrived together
// from a single Read of the connection.
func TestFrameReaderSplitAndCoalesced(t *testing.T) {
	var wire bytes.Buffer
	first := Request{Seq: 1, Method: MethodProbeMate, JobID: 7}
	second := Request{Seq: 2, Method: MethodStartMate, JobID: 7}
	for _, f := range []*Request{&first, &second} {
		if err := WriteFrame(&wire, f); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, fr *FrameReader) {
		t.Helper()
		for _, want := range []Request{first, second} {
			var got Request
			if err := fr.ReadFrame(&got); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %+v, %v; want %+v", name, got, err, want)
			}
		}
		var extra Request
		if err := fr.ReadFrame(&extra); err != io.EOF {
			t.Fatalf("%s: read past the last frame: err = %v, want io.EOF", name, err)
		}
	}

	check("one byte per read", NewFrameReader(iotest.OneByteReader(bytes.NewReader(wire.Bytes()))))

	cr := &countingReader{r: bytes.NewReader(wire.Bytes())}
	check("two frames in one read", NewFrameReader(cr))
	if cr.reads != 2 { // both frames, then the EOF
		t.Fatalf("two coalesced frames cost %d reads of the connection, want 2 (data, EOF)", cr.reads)
	}

	// A header cut short is a torn frame, not a clean end of stream.
	torn := NewFrameReader(bytes.NewReader(wire.Bytes()[:2]))
	var req Request
	if err := torn.ReadFrame(&req); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// fakeBackend is a scriptable Peer for server tests.
type fakeBackend struct {
	mu       sync.Mutex
	statuses map[job.ID]cosched.MateStatus
	started  map[job.ID]bool
	fail     bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		statuses: make(map[job.ID]cosched.MateStatus),
		started:  make(map[job.ID]bool),
	}
}

func (f *fakeBackend) PeerName() string { return "fake" }

func (f *fakeBackend) GetMateJob(id job.ID) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return false, errors.New("injected failure")
	}
	_, ok := f.statuses[id]
	return ok, nil
}

func (f *fakeBackend) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return cosched.StatusUnknown, errors.New("injected failure")
	}
	st, ok := f.statuses[id]
	if !ok {
		return cosched.StatusUnknown, nil
	}
	return st, nil
}

func (f *fakeBackend) CanStartMate(id job.ID) (bool, error) {
	st, err := f.GetMateStatus(id)
	return st == cosched.StatusQueuing || st == cosched.StatusHolding, err
}

func (f *fakeBackend) TryStartMate(id job.ID) (bool, error) {
	ok, err := f.CanStartMate(id)
	if err != nil || !ok {
		return false, err
	}
	f.mu.Lock()
	f.started[id] = true
	f.statuses[id] = cosched.StatusRunning
	f.mu.Unlock()
	return true, nil
}

func (f *fakeBackend) StartMate(id job.ID) error {
	ok, err := f.TryStartMate(id)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("not startable")
	}
	return nil
}

// pipePair returns a connected client and serving backend over net.Pipe.
func pipePair(t *testing.T, backend cosched.Peer) *Client {
	t.Helper()
	server := NewServer(backend, nil, nil)
	clientEnd, serverEnd := net.Pipe()
	go server.ServeConn(serverEnd)
	t.Cleanup(func() {
		clientEnd.Close()
		server.Close()
	})
	return NewClient(clientEnd, time.Second)
}

func TestClientServerOverPipe(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[7] = cosched.StatusQueuing
	backend.statuses[8] = cosched.StatusHolding
	c := pipePair(t, backend)

	if name, err := c.Ping(); err != nil || name != "fake" {
		t.Fatalf("ping = %q, %v", name, err)
	}
	if c.PeerName() != "fake" {
		t.Fatalf("PeerName = %q after ping", c.PeerName())
	}
	if known, err := c.GetMateJob(7); err != nil || !known {
		t.Fatalf("GetMateJob(7) = %v, %v", known, err)
	}
	if known, err := c.GetMateJob(99); err != nil || known {
		t.Fatalf("GetMateJob(99) = %v, %v", known, err)
	}
	if st, err := c.GetMateStatus(8); err != nil || st != cosched.StatusHolding {
		t.Fatalf("GetMateStatus(8) = %s, %v", st, err)
	}
	if ok, err := c.CanStartMate(7); err != nil || !ok {
		t.Fatalf("CanStartMate(7) = %v, %v", ok, err)
	}
	if ok, err := c.TryStartMate(7); err != nil || !ok {
		t.Fatalf("TryStartMate(7) = %v, %v", ok, err)
	}
	if !backend.started[7] {
		t.Fatal("backend did not start job 7")
	}
	if st, _ := c.GetMateStatus(7); st != cosched.StatusRunning {
		t.Fatalf("status after start = %s, want running", st)
	}
	if err := c.StartMate(8); err != nil {
		t.Fatalf("StartMate(8): %v", err)
	}
}

// TestProbeMateOverPipe: one probe_mate round trip carries the three
// answers. The backend here is a plain Peer, so the server composes them
// through cosched.ProbeMate; the answers must equal the three plain calls.
func TestProbeMateOverPipe(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[7] = cosched.StatusQueuing
	backend.statuses[8] = cosched.StatusHolding
	c := pipePair(t, backend)
	for id, want := range map[job.ID]cosched.MateProbe{
		7:  {Known: true, Status: cosched.StatusQueuing, CanStart: true},
		8:  {Known: true, Status: cosched.StatusHolding},
		99: {},
	} {
		got, err := c.ProbeMate(id)
		if err != nil || got != want {
			t.Errorf("ProbeMate(%d) = %+v, %v; want %+v", id, got, err, want)
		}
	}
	backend.mu.Lock()
	backend.fail = true
	backend.mu.Unlock()
	if _, err := c.ProbeMate(7); !IsRemote(err) {
		t.Fatalf("backend failure surfaced as %v, want a RemoteError", err)
	}
	if c.Broken() {
		t.Fatal("a remote error retired the connection")
	}
}

func TestServerPropagatesBackendErrors(t *testing.T) {
	backend := newFakeBackend()
	backend.fail = true
	c := pipePair(t, backend)
	if _, err := c.GetMateStatus(1); err == nil {
		t.Fatal("backend error not propagated")
	}
}

func TestClientServerOverTCP(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[3] = cosched.StatusQueuing
	server := NewServer(backend, nil, nil)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PeerName() != "fake" {
		t.Fatalf("PeerName = %q, want fake (Dial pings)", c.PeerName())
	}
	ok, err := c.TryStartMate(3)
	if err != nil || !ok {
		t.Fatalf("TryStartMate over TCP = %v, %v", ok, err)
	}

	// Multiple concurrent clients against one server.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := Dial(addr.String(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cc.Close()
			for k := 0; k < 20; k++ {
				if _, err := cc.GetMateStatus(3); err != nil {
					t.Errorf("status: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestClientTimeoutSurfacesAsError(t *testing.T) {
	// A server that never answers: the client call must fail after the
	// timeout rather than hang — the fault-tolerance contract.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			//simlint:allow R2 deliberately mute real server; must outlast the client's wire deadline
			time.Sleep(2 * time.Second) // never respond within timeout
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, 100*time.Millisecond)
	defer c.Close()
	//simlint:allow R2 measuring a real socket deadline, not simulation time
	start := time.Now()
	if _, err := c.GetMateStatus(1); err == nil {
		t.Fatal("call against mute server succeeded")
	}
	//simlint:allow R2 measuring a real socket deadline, not simulation time
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestSequenceMismatchDetected(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	go func() {
		defer serverEnd.Close()
		var req Request
		if err := ReadFrame(serverEnd, &req); err != nil {
			return
		}
		// Answer with the wrong sequence number.
		_ = WriteFrame(serverEnd, &Response{Seq: req.Seq + 99})
	}()
	c := NewClient(clientEnd, time.Second)
	if _, err := c.Ping(); err == nil {
		t.Fatal("mismatched sequence accepted")
	}
}

func TestFaultInjectorDeterminismAndRate(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	a := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(42, Rates{Fail: 0.3}), nil)
	b := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(42, Rates{Fail: 0.3}), nil)
	var patternA, patternB []bool
	for i := 0; i < 500; i++ {
		_, errA := a.GetMateStatus(1)
		_, errB := b.GetMateStatus(1)
		patternA = append(patternA, errA != nil)
		patternB = append(patternB, errB != nil)
	}
	for i := range patternA {
		if patternA[i] != patternB[i] {
			t.Fatalf("fault streams diverged at call %d", i)
		}
	}
	rate := float64(a.Failed()) / float64(a.Calls())
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("observed failure rate %.2f, want ≈0.3", rate)
	}
	for i := range patternA {
		if patternA[i] {
			if _, err := a.GetMateJob(1); err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("wrong error type: %v", err)
			}
			break
		}
	}
}

// onceScript hands out one directive, then zero values.
type onceScript struct{ d CallDirective }

func (s *onceScript) NextCall() CallDirective {
	d := s.d
	s.d = CallDirective{}
	return d
}

// TestFaultInjectorProbeMateIsOneDraw: the combined probe consumes exactly
// one intercept, like the GetMateStatus query it subsumes — same seed, same
// failure pattern — even when the inner peer is a plain Peer that has to be
// asked three queries behind that draw; a duplicate directive repeats the
// whole probe.
func TestFaultInjectorProbeMateIsOneDraw(t *testing.T) {
	backend := newFakeBackend()
	backend.statuses[1] = cosched.StatusQueuing
	a := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(42, Rates{Fail: 0.3}), nil)
	b := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(42, Rates{Fail: 0.3}), nil)
	for i := 0; i < 500; i++ {
		_, errA := a.GetMateStatus(1)
		probe, errB := b.ProbeMate(1)
		if (errA != nil) != (errB != nil) {
			t.Fatalf("call %d: GetMateStatus err=%v, ProbeMate err=%v — the probe drew a different stream", i, errA, errB)
		}
		if errB != nil && !errors.Is(errB, ErrInjected) {
			t.Fatalf("call %d: wrong error type: %v", i, errB)
		}
		if want := (cosched.MateProbe{Known: true, Status: cosched.StatusQueuing, CanStart: true}); errB == nil && probe != want {
			t.Fatalf("call %d: probe = %+v, want %+v", i, probe, want)
		}
	}
	if b.Calls() != 500 || b.Failed() != a.Failed() || b.Failed() == 0 {
		t.Fatalf("probe injector: calls = %d, failed = %d; query injector failed %d", b.Calls(), b.Failed(), a.Failed())
	}

	counted := &countingProber{}
	dup := NewFaultInjector(NewServer(counted, nil, nil), &onceScript{CallDirective{Duplicate: true}}, nil)
	if _, err := dup.ProbeMate(1); err != nil || counted.probes != 2 || dup.Duplicated() != 1 {
		t.Fatalf("duplicated probe: err = %v, inner probed %d times, Duplicated() = %d; want nil, 2, 1", err, counted.probes, dup.Duplicated())
	}
	if _, err := dup.ProbeMate(1); err != nil || counted.probes != 3 {
		t.Fatalf("plain probe after the directive: err = %v, inner probed %d times; want nil, 3", err, counted.probes)
	}
}

// countingProber is a Prober-capable peer that counts its probes.
type countingProber struct {
	fakeBackend
	probes int
}

func (p *countingProber) ProbeMate(job.ID) (cosched.MateProbe, error) {
	p.probes++
	return cosched.MateProbe{}, nil
}

func TestFaultInjectorRateClamps(t *testing.T) {
	backend := newFakeBackend()
	never := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(1, Rates{Fail: -1}), nil)
	always := NewFaultInjector(NewServer(backend, nil, nil), NewRateScript(1, Rates{Fail: 2}), nil)
	for i := 0; i < 50; i++ {
		if _, err := never.GetMateJob(1); err != nil {
			t.Fatal("rate 0 injector failed a call")
		}
		if _, err := always.GetMateJob(1); err == nil {
			t.Fatal("rate 1 injector passed a call")
		}
	}
}

// TestRateScriptStreamIsPinned pins the first 64 directives of two seeded
// streams under two rate sets, one digit per call (1 delay + 2 drop + 4
// fail). The expected strings were read, call by call, from the injector's
// Delayed/Dropped/Failed counters when the rates were injector modes, so a
// seeded chaos run (coupled FaultRate, the wire and live chaos tests)
// reproduces draw for draw.
func TestRateScriptStreamIsPinned(t *testing.T) {
	failOnly := Rates{Fail: 0.3}
	all := Rates{Latency: 0.2, Delay: time.Nanosecond, Drop: 0.2, Fail: 0.3}
	for _, tc := range []struct {
		seed  uint64
		rates Rates
		want  string
	}{
		{7, failOnly, "0400040040400000000004000040000404004044000440000000440400000000"},
		{7, all, "2442000140205160060000040000342014100000440001012010426002140001"},
		{42, failOnly, "0440404000400004404004004400000000004404044000440004404000044004"},
		{42, all, "6200021110001506031401001240004404014040075020102000020011214201"},
	} {
		s := NewRateScript(tc.seed, tc.rates)
		got := make([]byte, 64)
		for i := range got {
			d := s.NextCall()
			v := 0
			if d.Delay > 0 {
				v |= 1
			}
			if d.Drop {
				v |= 2
			}
			if d.Fail {
				v |= 4
			}
			got[i] = byte('0' + v)
		}
		if string(got) != tc.want {
			t.Errorf("seed %d, %+v:\n got %s\nwant %s", tc.seed, tc.rates, got, tc.want)
		}
	}
}
