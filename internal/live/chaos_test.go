package live

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cosched/internal/config"
	"cosched/internal/job"
	"cosched/internal/obs"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
)

// TestLiveChaosCoStartOverTCP runs two real daemons on one stepped clock
// whose peer links cross a fault injector (latency + connection drops) and
// survive a peer-server restart, then co-schedules a pair. The resilient
// links must absorb every transport event: the pair still co-starts at one
// instant, the links end healthy, and the status endpoint reports the chaos
// it weathered.
func TestLiveChaosCoStartOverTCP(t *testing.T) {
	clk := newStepClock()
	a := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "a", Nodes: 64, Scheme: "hold"}, Speedup: 1, Status: "127.0.0.1:0"})
	b := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "yield"}, Speedup: 1})

	// Links tuned for fast redial, each behind a fault injector: the
	// manager calls through the injector, while reconciliation, drain and
	// the status page see the link.
	la := peerlink.New(peerlink.Config{
		Name: "b", Addr: b.peerAddr,
		DialTimeout: time.Second, CallTimeout: 2 * time.Second,
		Cooldown: 50 * time.Millisecond, Now: clk.Now,
	})
	lb := peerlink.New(peerlink.Config{
		Name: "a", Addr: a.peerAddr,
		DialTimeout: time.Second, CallTimeout: 2 * time.Second,
		Cooldown: 50 * time.Millisecond, Now: clk.Now,
	})
	chaos := proto.Rates{Latency: 0.2, Delay: time.Millisecond, Drop: 0.2}
	ia := proto.NewFaultInjector(la, proto.NewRateScript(11, chaos), la.BreakConn)
	ib := proto.NewFaultInjector(lb, proto.NewRateScript(12, chaos), lb.BreakConn)
	a.addPeer(la, ia)
	b.addPeer(lb, ib)
	ssAddr := a.statusAddr

	// Connect, then restart b's peer server on the same address. The link's
	// established connection dies with the old server; the machinery must
	// heal it (retry on a fresh dial) without any intervention.
	if err := la.Probe(); err != nil {
		t.Fatal(err)
	}
	b.peer.Close()
	nb := proto.NewServer(b.mgr, b.driver, nil)
	if _, err := nb.Listen(b.peerAddr); err != nil {
		t.Fatalf("rebind %s: %v", b.peerAddr, err)
	}
	defer nb.Close()

	// Chaos traffic through the injectors — the same path the schedulers
	// use. Idempotent queries must all succeed: drops and the restart are
	// transport events the link absorbs.
	for i := 0; i < 60; i++ {
		if _, err := ia.GetMateStatus(job.ID(1000 + i)); err != nil {
			t.Fatalf("call %d through chaos: %v", i, err)
		}
		if _, err := ib.GetMateStatus(job.ID(1000 + i)); err != nil {
			t.Fatalf("call %d through chaos: %v", i, err)
		}
	}
	if ia.Delayed()+ib.Delayed() == 0 || ia.Dropped()+ib.Dropped() == 0 {
		t.Fatalf("chaos did not fire: delayed %d+%d, dropped %d+%d",
			ia.Delayed(), ib.Delayed(), ia.Dropped(), ib.Dropped())
	}
	if snap := la.Snapshot(); snap.Dials < 2 {
		t.Fatalf("link a->b never redialed through the chaos: %+v", snap)
	}

	// Now the actual coscheduling, still through the injectors.
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
	if err := cb.Expect(wb); err != nil {
		t.Fatal(err)
	}
	if err := ca.Submit(wa); err != nil {
		t.Fatal(err)
	}
	// a's submit answered once a's half held, so b's half cannot arrive
	// while a's pass is in flight: two passes in flight at once would
	// stall on each other's driver lock.
	clk.Advance(time.Second)
	if sa, err := ca.Status(1); err != nil || sa.State != job.Holding.String() {
		t.Fatalf("a's half with its mate only expected: %+v, %v; want holding", sa, err)
	}
	clk.Advance(10 * time.Minute) // ten virtual minutes of holding
	if err := cb.Submit(wb); err != nil {
		t.Fatal(err)
	}
	// b's status first: its driver lock is held across the pass that starts
	// b's half and releases a's, so once b answers, a's start is in.
	clk.Advance(time.Second)
	sb, err2 := cb.Status(1)
	sa, err1 := ca.Status(1)
	if err1 != nil || err2 != nil || !sa.Started || !sb.Started {
		t.Fatalf("pair not started under chaos: a %+v, %v; b %+v, %v", sa, err1, sb, err2)
	}
	if sa.StartTime != 601 || sb.StartTime != 601 {
		t.Fatalf("halves started at %d and %d under chaos, want both at 601, when b's half arrived", sa.StartTime, sb.StartTime)
	}

	// Both links weathered the chaos and ended healthy.
	for _, l := range []*peerlink.Link{la, lb} {
		snap := l.Snapshot()
		if snap.State != "closed" {
			t.Fatalf("link %s ended %s: %+v", snap.Name, snap.State, snap)
		}
	}

	// The status endpoint exports the link's health counters.
	resp, err := http.Get("http://" + ssAddr + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Peers) != 1 || snap.Peers[0].Name != "b" {
		t.Fatalf("status peers = %+v", snap.Peers)
	}
	if snap.Peers[0].Calls == 0 || snap.Peers[0].Dials == 0 {
		t.Fatalf("peer counters empty in status: %+v", snap.Peers[0])
	}

	// /metrics must export the same link counters the Snapshot API
	// reports. The drivers are still running, so counters may advance
	// between reads; a scrape → snapshot → scrape sandwich pins each
	// exported counter between two authoritative Snapshot values without
	// racing the scheduler.
	scrape := func() *obs.Scrape {
		t.Helper()
		resp, err := http.Get("http://" + ssAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		s, err := obs.Parse(body)
		if err != nil {
			t.Fatalf("metrics exposition does not parse after chaos: %v\n%s", err, body)
		}
		return s
	}
	before := la.Snapshot()
	mid := scrape()
	after := la.Snapshot()
	for _, c := range []struct {
		metric string
		lo, hi int
	}{
		{"cosched_peer_calls_total", before.Calls, after.Calls},
		{"cosched_peer_successes_total", before.Successes, after.Successes},
		{"cosched_peer_dials_total", before.Dials, after.Dials},
		{"cosched_peer_transport_errors_total", before.TransportErrors, after.TransportErrors},
		{"cosched_peer_retries_total", before.Retries, after.Retries},
		{"cosched_peer_breaker_trips_total", before.Trips, after.Trips},
	} {
		v, ok := mid.Value(c.metric, "domain", "a", "peer", "b")
		if !ok {
			t.Fatalf("%s missing from /metrics after chaos", c.metric)
		}
		if v < float64(c.lo) || v > float64(c.hi) {
			t.Fatalf("%s = %g outside Snapshot sandwich [%d, %d]", c.metric, v, c.lo, c.hi)
		}
	}
	if v, _ := mid.Value("cosched_peer_calls_total", "domain", "a", "peer", "b"); v == 0 {
		t.Fatal("peer call counter still zero after a chaos run")
	}
}

// TestLiveBreakerFailsFastWithPeerDown: with its peer daemon dead and the
// breaker open, a domain's coordination queries fail in microseconds — the
// scheduler absorbs "status unknown" instead of stalling a full dial
// timeout per iteration.
func TestLiveBreakerFailsFastWithPeerDown(t *testing.T) {
	b := startTestDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "yield"}, Speedup: 1})
	addr := b.peerAddr
	b.peer.Close() // peer daemon is gone

	l := peerlink.New(peerlink.Config{
		Name: "b", Addr: addr,
		DialTimeout: 500 * time.Millisecond, CallTimeout: time.Second,
		FailThreshold: 2, Cooldown: 10 * time.Second,
	})
	defer l.Close()
	openBreaker(t, l)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := l.GetMateStatus(1); err == nil {
			t.Fatal("call against dead peer succeeded")
		}
	}
	if avg := time.Since(start) / n; avg > time.Millisecond {
		t.Fatalf("open-breaker call averaged %v, want <1ms", avg)
	}
}

// lockedBuffer is a bytes.Buffer a logger can write while a test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBreakerTransitionsReachTheDaemonLog: a daemon prints every breaker
// transition of its peer links on its own logger, one line naming the
// peer, the two states and the cause — whatever else is configured.
func TestBreakerTransitionsReachTheDaemonLog(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	var out lockedBuffer
	d, err := Start(Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}, Speedup: 2000,
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0"}, log.New(&out, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	openBreaker(t, d.Connect("b", dead))
	want := "peerlink b: breaker closed -> open (proto: dial: "
	if !strings.Contains(out.String(), want) {
		t.Fatalf("daemon log lacks %q:\n%s", want, out.String())
	}
}

// openBreaker calls l until its breaker opens: against a refused dial that
// takes FailThreshold calls (3 by default).
func openBreaker(t *testing.T, l *peerlink.Link) {
	t.Helper()
	for i := 0; l.State() != peerlink.Open; i++ {
		if i == 10 {
			t.Fatalf("breaker still closed after %d calls to a dead peer; snapshot %+v", i, l.Snapshot())
		}
		l.GetMateStatus(1)
	}
}
