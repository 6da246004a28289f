package live

import (
	"context"
	"testing"
	"time"

	"cosched/internal/config"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/sim"
)

// TestLiveSymmetricDecisionStall: two daemons decide for the two halves of
// a pair at the same virtual instant. Each scheduler probes the other's
// half holding its own driver lock, and each probe needs the other's lock
// to be answered, so neither exchange can complete: both stay parked while
// both locks are held. Only the call timeout ends the stall, and then each
// side sees "status unknown" and starts its half uncoordinated. This pins
// that outcome; the pair starts at one instant only because the two sides
// decided at one.
func TestLiveSymmetricDecisionStall(t *testing.T) {
	p := startPair(t, Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}}, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "hold"}})

	do(t, p.a, func() error { return p.a.mgr.Submit(pairedJob(1, "b")) })
	xa := p.ab.next(t, proto.MethodProbeMate, 1)
	do(t, p.b, func() error { return p.b.mgr.Submit(pairedJob(1, "a")) })
	xb := p.ba.next(t, proto.MethodProbeMate, 1)

	// Each daemon makes its peer calls under its driver lock (ROADMAP.md
	// item 1, "No peer I/O under the driver lock"). Item 1's fix releases
	// the lock for the exchanges and flips this expectation.
	for _, d := range []*Daemon{p.a, p.b} {
		if d.driver.mu.TryLock() {
			d.driver.mu.Unlock()
			t.Fatalf("%s's driver lock is free while its probe is parked, want held", d.cfg.Name)
		}
	}

	// The wall clock would run out both calls' budget; then both fail.
	p.clk.Advance(2 * time.Second)
	xa.fail()
	xb.fail()

	for _, d := range []*Daemon{p.a, p.b} {
		if j := jobOf(d, 1); j.State != job.Running || j.StartTime != 0 {
			t.Fatalf("%s's half is %s since %d, want running since 0 after its probe failed", d.cfg.Name, j.State, j.StartTime)
		}
		s := d.peerLinks()[0].Snapshot()
		if s.TransportErrors != 1 || s.Retries != 0 || s.Successes != 0 {
			t.Fatalf("%s's link %+v: want the one failed probe, not retried", d.cfg.Name, s)
		}
	}
}

// TestLiveLateTryIsRefused: a's probe finds b's half queued and startable,
// but before a's try_start_mate arrives, b starts that half on its own — its
// probe of a's half failed, so under the fault-tolerance rule it started
// uncoordinated. The try then proposes a's instant for a job already
// running since another one. b must answer "not started", so that a does
// not record a co-start that did not happen: a holds, and once its hold is
// released a's next probe finds b's half running, and a starts
// uncoordinated.
func TestLiveLateTryIsRefused(t *testing.T) {
	p := startPair(t, Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}}, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "yield"}})
	ja := pairedJob(1, "b")
	do(t, p.a, func() error { return p.a.mgr.Expect(ja) })

	// b's half arrives while a's is only expected: b yields and stays queued.
	do(t, p.b, func() error { return p.b.mgr.Submit(pairedJob(1, "a")) })
	if _, err := p.ba.next(t, proto.MethodProbeMate, 1).deliver(); err != nil {
		t.Fatal(err)
	}

	// a's half arrives at 0: the probe finds b's half startable, and a's
	// try for 0 parks.
	do(t, p.a, func() error { return p.a.mgr.Submit(ja) })
	if resp, err := p.ab.next(t, proto.MethodProbeMate, 1).deliver(); err != nil || !resp.OK {
		t.Fatalf("a's probe of b's half = %+v, %v; want startable", resp, err)
	}
	try := p.ab.next(t, proto.MethodTryStartMate, 1)

	// At 60 b's next scheduling pass probes a's half, whose daemon is busy
	// waiting on the try; the probe fails and b starts alone.
	p.clk.Advance(time.Minute)
	do(t, p.b, func() error { p.b.mgr.RequestIteration(); return nil })
	xb := p.ba.next(t, proto.MethodProbeMate, 1)
	p.clk.Advance(2 * time.Second)
	xb.fail()
	if j := jobOf(p.b, 1); j.State != job.Running || j.StartTime != 60 {
		t.Fatalf("b's half is %s since %d, want running since 60", j.State, j.StartTime)
	}

	if resp, err := try.deliver(); err != nil || resp.OK {
		t.Fatalf("try_start_mate at 0 for b's half, running since 60, answered %+v, %v; want not started", resp, err)
	}
	if j := jobOf(p.a, 1); j.State != job.Holding {
		t.Fatalf("a's half is %s after its try was refused, want holding", j.State)
	}

	// The hold's release interval ends at 1200; a's next probe finds b's
	// half running, and a starts without a try.
	p.clk.Advance(20 * time.Minute)
	if resp, err := p.ab.next(t, proto.MethodProbeMate, 1).deliver(); err != nil || resp.Status != "running" {
		t.Fatalf("a's probe after the release = %+v, %v; want b's half running", resp, err)
	}
	ha, hb := jobOf(p.a, 1), jobOf(p.b, 1)
	if ha.State != job.Running || ha.StartTime != 1200 {
		t.Fatalf("a's half is %s since %d, want running since 1200", ha.State, ha.StartTime)
	}
	vs := invariant.VerifyCoStarts(map[string][]*job.Job{"a": {&ha}, "b": {&hb}}, nil)
	if len(vs) != 1 || vs[0].Start != 1200 || vs[0].MateAt != 60 {
		t.Fatalf("co-start check = %v, want a's uncoordinated start at 1200 against b's at 60", vs)
	}
}

// TestReconcileRetryWaitsOnTheDriversClock: a daemon restarted from its
// journal reconciles with its peer, and when that exchange fails it retries
// once its driver's clock has moved reconcileRetry on from the attempt — a
// step of the test's clock, with no wall time in between.
func TestReconcileRetryWaitsOnTheDriversClock(t *testing.T) {
	cfg := Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}, JournalDir: t.TempDir()}
	// A first life journals an expected half of a pair and stops, so the
	// second start recovers and has something to reconcile.
	first := startStillDomain(t, newStepClock(), cfg)
	do(t, first, func() error { return first.mgr.Expect(pairedJob(1, "b")) })
	first.close()

	clk := newStepClock()
	b := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "hold"}, Speedup: 1})
	a := startStillDomain(t, clk, cfg)
	if a.recovery == nil {
		t.Fatal("the restarted daemon recovered nothing from its journal")
	}
	stop := make(chan struct{})
	ab := link(a, b, stop)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	t.Cleanup(func() { close(stop) }) // before a's drain, which calls b through the gate

	x := ab.next(t, proto.MethodReconcile, 0)
	x.verdict <- &proto.RemoteError{Method: proto.MethodReconcile, Msg: "not yet"}
	<-x.done
	// The reconcile held a's driver lock across the exchange, so this Do
	// runs once it has decided on the retry: past what is due now, the
	// next event is the retry, reconcileRetry of virtual time ahead.
	var now, due sim.Time
	var pending bool
	a.driver.Do(func() {
		a.driver.fireDueLocked()
		now = a.driver.eng.Now()
		due, pending = a.driver.eng.NextTime()
	})
	if want := now + sim.Time(reconcileRetry.Seconds()); !pending || due != want {
		t.Fatalf("after the failed reconcile at t=%d the next event is at %d (pending %v), want the retry at %d", now, due, pending, want)
	}
	clk.Advance(reconcileRetry)
	if _, err := ab.next(t, proto.MethodReconcile, 0).deliver(); err != nil {
		t.Fatalf("the retried reconcile failed: %v", err)
	}
}
