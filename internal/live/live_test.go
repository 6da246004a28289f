package live

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/obs"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// testDomain spins up one live manager with peer+admin servers on loopback.
type testDomain struct {
	mgr    *resmgr.Manager
	driver *Driver
	peer   *proto.Server
	admin  *AdminServer

	peerAddr, adminAddr string
}

func startTestDomain(t *testing.T, name string, nodes int, scheme cosched.Scheme, speedup float64) *testDomain {
	t.Helper()
	eng := sim.NewEngine()
	mgr := resmgr.New(eng, resmgr.Options{
		Name:        name,
		Pool:        cluster.New(name, nodes),
		Backfilling: true,
		Cosched:     cosched.DefaultConfig(scheme),
	})
	d := NewDriver(eng, speedup)
	ps := proto.NewServer(mgr, d, nil)
	pa, err := ps.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	as := NewAdminServer(mgr, d, nil)
	aa, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ps.Close()
		as.Close()
	})
	return &testDomain{mgr: mgr, driver: d, peer: ps, admin: as,
		peerAddr: pa.String(), adminAddr: aa.String()}
}

func TestDriverPacesEvents(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng, 1000) // 1000 virtual seconds per wall second
	fired := make(chan sim.Time, 1)
	d.Do(func() {
		eng.After(100, sim.PriorityDefault, func(now sim.Time) { fired <- now })
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	select {
	case now := <-fired:
		if now != 100 {
			t.Fatalf("event fired at %d, want 100", now)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event did not fire within 2s wall (should take ~0.1s)")
	}
}

func TestDriverClockSyncOnLock(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	time.Sleep(200 * time.Millisecond) // ≈200 virtual seconds
	var now sim.Time
	d.Do(func() { now = eng.Now() })
	if now < 100 {
		t.Fatalf("engine clock %d did not catch up to the wall (~200)", now)
	}
}

func TestDriverRejectsBadSpeedup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speedup accepted")
		}
	}()
	NewDriver(sim.NewEngine(), 0)
}

func TestAdminSubmitAndStatus(t *testing.T) {
	dom := startTestDomain(t, "solo", 64, cosched.Hold, 500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dom.driver.Run(ctx)

	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Domain != "solo" || info.Nodes != 64 || info.Free != 64 {
		t.Fatalf("info = %+v", info)
	}

	if err := c.Submit(WireJob{ID: 1, Nodes: 16, Runtime: 60, Walltime: 120}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := c.Status(1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Status(99); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
	// Resubmitting a started job must fail.
	if err := c.Submit(WireJob{ID: 1, Nodes: 16, Runtime: 60, Walltime: 120}); err == nil {
		t.Fatal("duplicate submit accepted")
	}
}

func TestAdminExpectIdempotent(t *testing.T) {
	dom := startTestDomain(t, "exp", 64, cosched.Hold, 500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dom.driver.Run(ctx)
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := WireJob{ID: 5, Nodes: 4, Runtime: 60, Walltime: 60}
	if err := c.Expect(w); err != nil {
		t.Fatal(err)
	}
	if err := c.Expect(w); err != nil {
		t.Fatalf("second expect: %v", err)
	}
	st, err := c.Status(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "unsubmitted" {
		t.Fatalf("state = %s, want unsubmitted", st.State)
	}
	// Submitting the expected job works.
	if err := c.Submit(w); err != nil {
		t.Fatal(err)
	}
}

func TestLiveCoStartOverTCP(t *testing.T) {
	a := startTestDomain(t, "a", 64, cosched.Hold, 2000)
	b := startTestDomain(t, "b", 8, cosched.Yield, 2000)

	ab, err := proto.Dial(b.peerAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ab.Close()
	ba, err := proto.Dial(a.peerAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	a.driver.Do(func() { a.mgr.AddPeer("b", ab) })
	b.driver.Do(func() { b.mgr.AddPeer("a", ba) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.driver.Run(ctx)
	go b.driver.Run(ctx)

	ca, err := DialAdmin(a.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := DialAdmin(b.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	wa := WireJob{ID: 1, Nodes: 16, Runtime: 600, Walltime: 600,
		Mates: []job.MateRef{{Domain: "b", Job: 1}}}
	wb := WireJob{ID: 1, Nodes: 4, Runtime: 600, Walltime: 600,
		Mates: []job.MateRef{{Domain: "a", Job: 1}}}
	// Co-submission protocol: declare both halves first.
	if err := cb.Expect(wb); err != nil {
		t.Fatal(err)
	}
	if err := ca.Submit(wa); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // ≈10 virtual minutes later
	if err := cb.Submit(wb); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		sa, err1 := ca.Status(1)
		sb, err2 := cb.Status(1)
		if err1 == nil && err2 == nil && sa.Started && sb.Started {
			// Each domain runs its own wall-clock-derived virtual time;
			// co-start lands within RPC latency of each other, a few
			// virtual seconds at 2000x.
			diff := sa.StartTime - sb.StartTime
			if diff < 0 {
				diff = -diff
			}
			if diff > 30 {
				t.Fatalf("start times differ by %d virtual seconds: %d vs %d",
					diff, sa.StartTime, sb.StartTime)
			}
			// The held job must have waited for its mate, not started
			// at submission.
			if sa.StartTime < 60 {
				t.Fatalf("a started at %d, should have held ~10 virtual minutes", sa.StartTime)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pair never co-started")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestStatusServer(t *testing.T) {
	dom := startTestDomain(t, "stat", 32, cosched.Hold, 500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dom.driver.Run(ctx)

	ss := NewStatusServer(dom.mgr, dom.driver, nil)
	addr, err := ss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	ac, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if err := ac.Submit(WireJob{ID: 9, Name: "probe", Nodes: 8, Runtime: 3600, Walltime: 3600}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// JSON endpoint.
	resp, err := http.Get("http://" + addr.String() + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Domain != "stat" || snap.Nodes != 32 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Free+snap.Running+snap.Held != snap.Nodes {
		t.Fatalf("node conservation in snapshot: %+v", snap)
	}
	found := false
	for _, row := range snap.Jobs {
		if row.ID == 9 && row.Name == "probe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("submitted job missing from snapshot: %+v", snap.Jobs)
	}

	// HTML page.
	resp2, err := http.Get("http://" + addr.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"coschedd", "stat", "probe"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("status page missing %q", want)
		}
	}
	// Unknown paths 404.
	resp3, err := http.Get("http://" + addr.String() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("status for /nope = %d", resp3.StatusCode)
	}

	// /metrics: the exposition must parse and its gauges must be
	// consistent with a JSON snapshot taken in the same quiet moment.
	// Node counts only move when a job starts or completes, and the one
	// submitted job runs for a virtual hour, so scrape and snapshot see
	// the same allocation state.
	resp4, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if ct := resp4.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("metrics content type = %q", ct)
	}
	expo, err := io.ReadAll(resp4.Body)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := obs.Parse(expo)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v\n%s", err, expo)
	}
	mustGauge := func(name string, want float64) {
		t.Helper()
		v, ok := scr.Value(name, "domain", "stat")
		if !ok {
			t.Fatalf("metric %s missing from exposition:\n%s", name, expo)
		}
		if v != want {
			t.Fatalf("%s = %g, want %g", name, v, want)
		}
	}
	mustGauge("cosched_nodes_total", 32)
	mustGauge("cosched_nodes_running", float64(snap.Running))
	mustGauge("cosched_nodes_free", float64(snap.Free))
	mustGauge("cosched_jobs_queued", float64(snap.Queued))
	if typ, ok := scr.Types["cosched_jobs_completed_total"]; !ok || typ != obs.KindCounter {
		t.Fatalf("cosched_jobs_completed_total type = %v, %v", typ, ok)
	}
	// Scraping twice must stay parseable and keep virtual time monotone.
	v1, _ := scr.Value("cosched_virtual_time_seconds", "domain", "stat")
	resp5, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo2, err := io.ReadAll(resp5.Body)
	resp5.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scr2, err := obs.Parse(expo2)
	if err != nil {
		t.Fatal(err)
	}
	v2, ok := scr2.Value("cosched_virtual_time_seconds", "domain", "stat")
	if !ok || v2 < v1 {
		t.Fatalf("virtual time went backwards across scrapes: %g -> %g (ok=%v)", v1, v2, ok)
	}
}

func TestAdminCancel(t *testing.T) {
	dom := startTestDomain(t, "cxl", 32, cosched.Hold, 500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go dom.driver.Run(ctx)
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(WireJob{ID: 3, Nodes: 8, Runtime: 100000, Walltime: 100000}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := c.Status(3)
		if err != nil {
			t.Fatal(err)
		}
		if st.Started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := c.Cancel(3); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("state = %s", st.State)
	}
	// Double cancel errors.
	if err := c.Cancel(3); err == nil {
		t.Fatal("double cancel accepted")
	}
}

// TestAdminClientRejectsStaleResponse: a response whose Seq is not the
// request's is a late answer to an earlier call; the client must fail the
// call rather than return the wrong job's state, and retire the connection.
func TestAdminClientRejectsStaleResponse(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	go func() { // answers request 1 properly, then request 2 with seq 1 again
		frames := proto.NewFrameReader(serverEnd)
		for i := 0; i < 2; i++ {
			var req AdminRequest
			if err := frames.ReadFrame(&req); err != nil {
				return
			}
			if err := proto.WriteFrame(serverEnd, &AdminResponse{Seq: 1, State: "running"}); err != nil {
				return
			}
		}
	}()
	c := &AdminClient{conn: clientEnd, frames: proto.NewFrameReader(clientEnd)}
	defer c.Close()
	if st, err := c.Status(5); err != nil || st.State != "running" {
		t.Fatalf("first call = %+v, %v", st, err)
	}
	if st, err := c.Status(6); err == nil || !strings.Contains(err.Error(), "sequence mismatch") {
		t.Fatalf("stale response accepted: %+v, %v", st, err)
	}
	if _, err := c.Status(7); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("call after a mismatch = %v, want the closed connection's error", err)
	}
}

// TestAdminCallTimesOutOnSilentServer: the timeout DialAdmin takes bounds
// each round trip, not only the connect. A daemon that accepts and never
// answers must fail the call within the bound — cosubmit would otherwise
// park forever on it — and the connection is retired, so the next call
// fails at once rather than pairing with a late response.
func TestAdminCallTimesOutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() { // accepts, reads nothing, writes nothing
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		<-done
		conn.Close()
	}()
	const bound = 200 * time.Millisecond
	c, err := DialAdmin(ln.Addr().String(), bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Info()
		errc <- err
	}()
	select {
	case err := <-errc:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Info against a silent server = %v, want a timeout error", err)
		}
		if took := time.Since(start); took < bound/2 || took > 10*bound {
			t.Fatalf("Info returned after %v, want about %v", took, bound)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Info against a silent server is still parked after 5 s: no deadline on the admin round trip")
	}
	start = time.Now()
	if _, err := c.Info(); err == nil || time.Since(start) > bound/2 {
		t.Fatalf("call after a timed-out one = %v after %v, want an immediate error from the retired connection", err, time.Since(start))
	}
}
