package live

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"cosched/internal/job"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
)

// This file is the deterministic harness for the live stack: a clock that
// moves only when a test steps it, and a gate that parks every peer request
// until the test delivers or fails it. With both, two daemons in one
// process run any interleaving of their decisions the test spells out, and
// no test waits on the wall clock to see one.

// stepClock is a clock that moves only by Advance. A step nudges every
// driver paced on the clock, so a driver asleep on its wall-clock timer goes
// round once and fires what became due; a wake-up of that timer between
// steps finds nothing due.
type stepClock struct {
	mu    sync.Mutex
	now   time.Time
	wakes []func()
}

func newStepClock() *stepClock { return &stepClock{now: time.Unix(1<<30, 0)} }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock by d and wakes the drivers paced on it.
func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	wakes := c.wakes
	c.mu.Unlock()
	for _, wake := range wakes {
		wake()
	}
}

// pace puts d on the clock with its pacing origin at the present instant —
// so that a step taken before d's Run loop gets going is not lost — and
// lets every step wake d. Call it before Run, and before the daemon around
// d connects a peer: the link reads d's clock.
func (c *stepClock) pace(d *Driver) {
	d.Do(func() { d.now, d.start, d.base = c.Now, c.Now(), d.eng.Now() })
	c.mu.Lock()
	c.wakes = append(c.wakes, d.nudge)
	c.mu.Unlock()
}

// await receives from ch, failing the test with what it waited for if
// nothing comes within a minute of wall time. That bound is not a step of
// the test's clock: it turns a regression that stops an exchange from
// parking, or an event from firing, into a message instead of a hang.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	bound := time.NewTimer(time.Minute)
	defer bound.Stop()
	select {
	case v := <-ch:
		return v
	case <-bound.C:
		t.Fatalf("waited a minute for %s", what)
		var zero T
		return zero
	}
}

// startTestDomain starts a daemon on clk with its peer and admin servers
// (and its status page, if cfg.Status is set) on loopback, a 20-minute
// release interval and backfilling, and runs it until the test ends.
func startTestDomain(t *testing.T, clk *stepClock, cfg Config) *Daemon {
	t.Helper()
	cfg.Listen, cfg.Admin = "127.0.0.1:0", "127.0.0.1:0"
	cfg.ReleaseMinutes, cfg.Backfilling = 20, true
	d, err := Start(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.pace(d.driver)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return d
}

// pair is two daemons, a and b, in one process on one stepped clock at one
// virtual second per clock second. Each is linked to the other's peer
// server, in process, through a gate: ab parks a's requests to b, ba b's
// requests to a.
type pair struct {
	clk    *stepClock
	a, b   *Daemon
	ab, ba *gate
}

func startPair(t *testing.T, a, b Config) *pair {
	t.Helper()
	a.Speedup, b.Speedup = 1, 1
	clk := newStepClock()
	p := &pair{clk: clk, a: startTestDomain(t, clk, a), b: startTestDomain(t, clk, b)}
	// Registered after the daemons, so it runs before their shutdown: a
	// request parked when the test ends, or sent by the drain, fails.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	p.ab, p.ba = link(p.a, p.b, stop), link(p.b, p.a, stop)
	return p
}

// link gives from a peer link to to whose transport is a new gate.
func link(from, to *Daemon, stop chan struct{}) *gate {
	g := &gate{
		name:   to.cfg.Name,
		to:     proto.NewClient(to.peer.InProcessConn(), 0),
		parked: make(chan *exchange),
		stop:   stop,
	}
	l := peerlink.New(peerlink.Config{
		Name:        to.cfg.Name,
		CallTimeout: from.cfg.PeerTimeout,
		Now:         from.driver.now,
		Dial: func(string, time.Duration, time.Duration) (peerlink.Transport, error) {
			return g, nil
		},
	})
	from.addPeer(l, l)
	return g
}

// gate is the step-controlled exchange: a peer link's transport to another
// daemon's server that parks every request until the test delivers it or
// fails it. A failure leaves the in-process connection as it was, so a
// redial gets the same gate back.
type gate struct {
	name   string
	to     *proto.Client
	parked chan *exchange
	stop   chan struct{}
}

// exchange is one parked request and, once settled, its outcome.
type exchange struct {
	t       *testing.T // the test that took it from the gate
	req     proto.Request
	verdict chan error // nil delivers the request; an error fails it
	resp    proto.Response
	err     error
	done    chan struct{}
}

var errGateStopped = &proto.TransportError{Stage: proto.StageBroken, Err: os.ErrClosed}

func (g *gate) PeerName() string { return g.name }
func (g *gate) Close() error     { return nil }

func (g *gate) Exchange(req proto.Request) (proto.Response, error) {
	x := &exchange{req: req, verdict: make(chan error), done: make(chan struct{})}
	select {
	case g.parked <- x:
	case <-g.stop:
		return proto.Response{}, errGateStopped
	}
	select {
	case x.err = <-x.verdict:
	case <-g.stop:
		x.err = errGateStopped
	}
	if x.err == nil {
		x.resp, x.err = g.to.Exchange(req)
	}
	close(x.done)
	return x.resp, x.err
}

// next waits for the next request to park and checks it is a method call
// about job id.
func (g *gate) next(t *testing.T, method string, id job.ID) *exchange {
	t.Helper()
	x := await(t, g.parked, fmt.Sprintf("%s job %d to park on its way to %s", method, id, g.name))
	if x.req.Method != method || x.req.JobID != id {
		t.Fatalf("request to %s parked: %s job %d, want %s job %d", g.name, x.req.Method, x.req.JobID, method, id)
	}
	x.t = t
	return x
}

// deliver hands x to the peer's server and returns the answer.
func (x *exchange) deliver() (proto.Response, error) {
	x.verdict <- nil
	await(x.t, x.done, fmt.Sprintf("the answer to %s job %d", x.req.Method, x.req.JobID))
	return x.resp, x.err
}

// fail ends x with the read timeout a call that runs out its CallTimeout
// ends with. Advance the clock past the call's budget first, as the wall
// clock would have moved, or the link retries an idempotent request.
func (x *exchange) fail() {
	x.verdict <- &proto.TransportError{Method: x.req.Method, Stage: proto.StageRead, Err: os.ErrDeadlineExceeded}
	<-x.done
}

// pairedJob is job id, four nodes for an hour, whose mate is job id of
// domain mate.
func pairedJob(id job.ID, mate string) *job.Job {
	j := job.New(id, 4, 0, 3600, 3600)
	j.Mates = []job.MateRef{{Domain: mate, Job: id}}
	return j
}

// do runs f on d's manager under its driver lock. The lock catches d's
// engine up to the clock first, so f sees every event due by then.
func do(t *testing.T, d *Daemon, f func() error) {
	t.Helper()
	var err error
	d.driver.Do(func() { err = f() })
	if err != nil {
		t.Fatal(err)
	}
}

// jobOf copies job id of d under its driver lock.
func jobOf(d *Daemon, id job.ID) job.Job {
	var c job.Job
	d.driver.Do(func() {
		j, _ := d.mgr.Job(id)
		c = *j
	})
	return c
}
