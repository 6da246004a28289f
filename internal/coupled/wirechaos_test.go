package coupled_test

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/eventlog"
	"cosched/internal/job"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// pipeDialer serves one manager's peer protocol over net.Pipe and survives
// server restarts: each dial connects to whichever proto.Server is
// currently installed, so a restarted daemon is modeled by swapping the
// server and cutting the old connections.
type pipeDialer struct {
	mu  sync.Mutex
	srv *proto.Server
}

func (p *pipeDialer) restart(backend cosched.Peer) {
	p.mu.Lock()
	p.srv = proto.NewServer(backend, nil, nil)
	p.mu.Unlock()
}

func (p *pipeDialer) dial(_ string, _, _ time.Duration) (peerlink.Transport, error) {
	p.mu.Lock()
	srv := p.srv
	p.mu.Unlock()
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	c := proto.NewClient(clientEnd, 0) // no wire deadline: virtual time only
	if _, err := c.Ping(); err != nil {
		clientEnd.Close()
		return nil, err
	}
	return c, nil
}

// chaosTraces builds a paired two-domain workload for the chaos run.
func chaosTraces(seed uint64, jobsPerSide int) (a, b []*job.Job) {
	specA := workload.Spec{
		Name: "a", Jobs: jobsPerSide, Span: 6 * sim.Hour,
		Sizes:     []workload.SizeClass{{Nodes: 8, Weight: 0.5}, {Nodes: 16, Weight: 0.3}, {Nodes: 32, Weight: 0.2}},
		RuntimeMu: 6.2, RuntimeSigma: 0.8,
		MinRuntime: sim.Minute, MaxRuntime: sim.Hour,
		WallFactorMin: 1.2, WallFactorMax: 2.0,
		Seed: seed,
	}
	specB := specA
	specB.Name = "b"
	specB.Sizes = []workload.SizeClass{{Nodes: 1, Weight: 0.4}, {Nodes: 2, Weight: 0.3}, {Nodes: 4, Weight: 0.3}}
	specB.Seed = seed + 1
	a, err := workload.Generate(specA)
	if err != nil {
		panic(err)
	}
	b, err = workload.Generate(specB)
	if err != nil {
		panic(err)
	}
	if _, err := workload.PairByProportion(workload.NewRNG(seed+2), a, b, "A", "B", 0.3); err != nil {
		panic(err)
	}
	return a, b
}

// TestChaosWireRunCoStartsExactly is the resilience acceptance run: every
// peer call crosses the real wire protocol through a resilient peerlink
// under injected chaos — connection drops, injected latency, and whole
// peer-server restarts mid-run — and the coupled simulation must still
// finish every job with byte-exact co-starts, verified independently from
// the event log. The chaos is confined to transport failures the link can
// heal (redial, retry-unsent); Algorithm 1 never sees an error, so the
// paper's guarantee must hold exactly, not within a tolerance.
func TestChaosWireRunCoStartsExactly(t *testing.T) {
	var buf bytes.Buffer
	elog := eventlog.New(&buf)
	a, b := chaosTraces(31, 60)
	s, err := coupled.New(coupled.Options{
		Domains: []coupled.DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true,
				Cosched: cosched.DefaultConfig(cosched.Hold),
				Trace:   a, Observer: elog.Observer("A")},
			{Name: "B", Nodes: 8, Backfilling: true,
				Cosched: cosched.DefaultConfig(cosched.Yield),
				Trace:   b, Observer: elog.Observer("B")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()

	// Replace the direct in-process peers with resilient links over the
	// wire protocol, each wrapped in a fault injector. The link's clock is
	// the engine's virtual clock, so backoff gates and call budgets follow
	// simulation time and the run stays deterministic.
	names := []string{"A", "B"}
	dialers := map[string]*pipeDialer{}
	for _, n := range names {
		d := &pipeDialer{}
		d.restart(s.Manager(n))
		dialers[n] = d
	}
	virtualNow := func() time.Time { return time.Unix(int64(eng.Now()), 0) }
	var links []*peerlink.Link
	var injectors []*proto.FaultInjector
	seed := uint64(400)
	for _, from := range names {
		for _, to := range names {
			if from == to {
				continue
			}
			link := peerlink.New(peerlink.Config{
				Name:        to,
				Addr:        "pipe:" + to,
				Dial:        dialers[to].dial,
				Now:         virtualNow,
				CallTimeout: time.Hour, // virtual budget: retries always fit
			})
			links = append(links, link)
			seed++
			// No outright failures (rate 0): those would surface to
			// Algorithm 1 as "status unknown" and legitimately break pairs.
			// Drops and latency must be absorbed by the link.
			inj := proto.NewFaultInjector(link, proto.NewRateScript(seed, proto.Rates{
				Latency: 0.10, Delay: 100 * time.Microsecond, Drop: 0.15,
			}), link.BreakConn)
			injectors = append(injectors, inj)
			s.Manager(from).AddPeer(to, inj)
		}
	}

	// Restart both peer servers at fixed virtual instants: the old server
	// is replaced atomically and every link's connection is cut, so the
	// next coordination call redials into the "restarted daemon".
	for i := 1; i <= 4; i++ {
		_, err := eng.At(sim.Time(i)*sim.Hour, sim.PriorityDefault, func(now sim.Time) {
			for _, n := range names {
				dialers[n].restart(s.Manager(n))
			}
			for _, l := range links {
				l.BreakConn()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	res := s.Run()
	if res.StuckJobs != 0 || res.CompletedJobs != res.TotalJobs {
		t.Fatalf("chaos run: %d/%d completed, %d stuck", res.CompletedJobs, res.TotalJobs, res.StuckJobs)
	}
	if res.CoStartViolations != 0 {
		t.Fatalf("chaos run: %d co-start violations (in-memory check)", res.CoStartViolations)
	}

	// The acceptance criterion proper: zero violations per the log-replay
	// verifier, trusting nothing from the run's memory.
	if err := elog.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := eventlog.Read(bytes.NewReader(buf.Bytes()))
	if err != nil || skipped != 0 {
		t.Fatalf("event log: skipped %d, err %v", skipped, err)
	}
	if v := eventlog.VerifyCoStarts(recs); len(v) != 0 {
		t.Fatalf("chaos run: %d co-start violations from the event log: %v", len(v), v[0])
	}

	// The chaos must actually have happened — otherwise this test proves
	// nothing about resilience.
	var delayed, dropped, calls int
	for _, inj := range injectors {
		calls += inj.Calls()
		delayed += inj.Delayed()
		dropped += inj.Dropped()
	}
	if calls == 0 || delayed == 0 || dropped == 0 {
		t.Fatalf("chaos did not fire: calls=%d delayed=%d dropped=%d", calls, delayed, dropped)
	}
	for _, l := range links {
		snap := l.Snapshot()
		if snap.Dials < 2 {
			t.Fatalf("link %s never redialed: %+v", snap.Name, snap)
		}
		if snap.BreakConns == 0 {
			t.Fatalf("link %s saw no connection drops: %+v", snap.Name, snap)
		}
		if snap.State != "closed" {
			t.Fatalf("link %s ended unhealthy: %+v", snap.Name, snap)
		}
	}
	t.Logf("chaos absorbed: %d peer calls, %d delayed, %d dropped, links redialed and stayed closed", calls, delayed, dropped)
}

// TestChaosWireRunIsDeterministic: the chaos run above is seeded end to
// end; two executions must agree on makespan and iteration counts even
// though drops and redials reshuffle goroutine interleavings on the wall
// clock.
func TestChaosWireRunIsDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		a, b := chaosTraces(31, 40)
		s, err := coupled.New(coupled.Options{
			Domains: []coupled.DomainConfig{
				{Name: "A", Nodes: 64, Backfilling: true,
					Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
				{Name: "B", Nodes: 8, Backfilling: true,
					Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := s.Engine()
		names := []string{"A", "B"}
		dialers := map[string]*pipeDialer{}
		for _, n := range names {
			d := &pipeDialer{}
			d.restart(s.Manager(n))
			dialers[n] = d
		}
		virtualNow := func() time.Time { return time.Unix(int64(eng.Now()), 0) }
		seed := uint64(900)
		for _, from := range names {
			for _, to := range names {
				if from == to {
					continue
				}
				link := peerlink.New(peerlink.Config{
					Name: to, Addr: "pipe:" + to,
					Dial: dialers[to].dial, Now: virtualNow,
					CallTimeout: time.Hour,
				})
				seed++
				s.Manager(from).AddPeer(to,
					proto.NewFaultInjector(link, proto.NewRateScript(seed, proto.Rates{Drop: 0.2}), link.BreakConn))
			}
		}
		res := s.Run()
		if res.StuckJobs != 0 || res.CoStartViolations != 0 {
			t.Fatalf("chaos run failed: %+v", res)
		}
		return res.Makespan, res.Iterations
	}
	m1, i1 := run()
	m2, i2 := run()
	if m1 != m2 || i1 != i2 {
		t.Fatalf("chaos runs diverged: makespan %d vs %d, iterations %d vs %d", m1, m2, i1, i2)
	}
}
