package live

import (
	"context"
	"net"
	"testing"
	"time"

	"cosched/internal/config"
	"cosched/internal/job"
	"cosched/internal/proto"
)

// startStillDomain starts a daemon on clk, on loopback, whose run loop
// does not run unless the test runs it. pace sets the driver's pacing
// origin, so a caller's Lock catches the engine up to the clock as under
// Run; but it fires nothing at the instant the engine already stands at,
// so whatever the daemon decides at the present instant, its admin caller
// made it decide.
func startStillDomain(t *testing.T, clk *stepClock, cfg Config) *Daemon {
	t.Helper()
	cfg.Listen, cfg.Admin = "127.0.0.1:0", "127.0.0.1:0"
	cfg.ReleaseMinutes, cfg.Backfilling, cfg.Speedup = 20, true, 1
	d, err := Start(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	clk.pace(d.driver)
	return d
}

// dialAdminRaw opens an admin connection to d for adminRoundTrip, closed
// when the test ends.
func dialAdminRaw(t *testing.T, d *Daemon) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", d.adminAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// submitAsync submits w to d on a connection of its own, in the
// background, and returns the channel the daemon's answer arrives on; a
// failed exchange arrives as the answer's Error.
func submitAsync(t *testing.T, d *Daemon, w WireJob) <-chan AdminResponse {
	conn := dialAdminRaw(t, d)
	answer := make(chan AdminResponse, 1)
	go func() {
		var resp AdminResponse
		err := proto.WriteFrame(conn, &AdminRequest{Seq: 1, Op: OpSubmit, Job: &w})
		if err == nil {
			err = proto.ReadFrame(conn, &resp)
		}
		if err != nil {
			resp.Error = err.Error()
		}
		answer <- resp
	}()
	return answer
}

// passesOf reads how many passes d's run loop has made, and how many
// wake-ups are waiting for it.
func passesOf(d *Driver) (passes, wakes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.passes, len(d.wake)
}

// TestAdminSubmitDecidesBeforeReply: an admin submit makes the job's first
// scheduling decision before it answers, and the answer names the state
// that decision left. An unpaired job that fits runs at once, and the run
// loop is neither passed through nor woken for it: its planned instant, a
// running job's end, is still the engine's next event. A paired half whose
// mate is only expected holds, its probe of the mate answered inside the
// submit.
func TestAdminSubmitDecidesBeforeReply(t *testing.T) {
	dom := startStillDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "solo", Nodes: 64, Scheme: "hold"}})
	conn := dialAdminRaw(t, dom)
	submit := func(seq uint64, w WireJob) AdminResponse {
		return adminRoundTrip(t, conn, AdminRequest{Seq: seq, Op: OpSubmit, Job: &w})
	}
	if resp := submit(1, WireJob{ID: 1, Nodes: 16, Runtime: 60, Walltime: 60}); resp.Error != "" || resp.State != job.Running.String() {
		t.Fatalf("submit of job 1 answered %+v, want state %s", resp, job.Running)
	}
	// One pass of the loop (Run on a canceled context plans its sleep and
	// returns) plans it toward job 1's end at 60.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for len(dom.driver.wake) > 0 {
		<-dom.driver.wake
	}
	dom.driver.Run(ctx)
	passes, _ := passesOf(dom.driver)

	if resp := submit(2, WireJob{ID: 2, Nodes: 16, Runtime: 3600, Walltime: 3600}); resp.Error != "" || resp.State != job.Running.String() {
		t.Fatalf("submit of job 2 answered %+v, want state %s", resp, job.Running)
	}
	if j := jobOf(dom, 2); j.StartTime != 0 {
		t.Fatalf("job 2 started at %d, want 0, its submission's instant", j.StartTime)
	}
	if got, wakes := passesOf(dom.driver); got != passes || wakes != 0 {
		t.Fatalf("the run loop made %d pass(es) after job 2's submit and has %d wake-up(s) waiting, want 0 and 0", got-passes, wakes)
	}

	p := startPair(t, Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}}, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "hold"}})
	do(t, p.b, func() error { return p.b.mgr.Expect(pairedJob(1, "a")) })
	answer := submitAsync(t, p.a, WireJob{ID: 1, Nodes: 4, Runtime: 3600, Walltime: 3600, Mates: []job.MateRef{{Domain: "b", Job: 1}}})
	if _, err := p.ab.next(t, proto.MethodProbeMate, 1).deliver(); err != nil {
		t.Fatal(err)
	}
	if resp := await(t, answer, "the answer to a's submit"); resp.Error != "" || resp.State != job.Holding.String() {
		t.Fatalf("submit of a's half with its mate only expected answered %+v, want state %s", resp, job.Holding)
	}
}

// TestAdminCancelStartsFreedWork: cancelling a running job runs the
// iteration the cancel requests before the cancel answers, so a queued job
// that the freed nodes fit is running by then. The domain's run loop never
// runs and the clock does not move, so nothing else could have started it.
func TestAdminCancelStartsFreedWork(t *testing.T) {
	dom := startStillDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "cxl", Nodes: 8, Scheme: "hold"}})
	conn := dialAdminRaw(t, dom)
	for i, want := range []job.State{job.Running, job.Queued} {
		w := WireJob{ID: job.ID(i + 1), Nodes: 8, Runtime: 3600, Walltime: 3600}
		if resp := adminRoundTrip(t, conn, AdminRequest{Seq: uint64(i + 1), Op: OpSubmit, Job: &w}); resp.Error != "" || resp.State != want.String() {
			t.Fatalf("submit of job %d answered %+v, want state %s", w.ID, resp, want)
		}
	}
	if resp := adminRoundTrip(t, conn, AdminRequest{Seq: 3, Op: OpCancel, JobID: 1}); resp.Error != "" || resp.State != job.Cancelled.String() {
		t.Fatalf("cancel of job 1 answered %+v, want state %s", resp, job.Cancelled)
	}
	if j := jobOf(dom, 2); j.State != job.Running || j.StartTime != 0 {
		t.Fatalf("after job 1's cancel answered, job 2 is %s since %d; want running since 0", j.State, j.StartTime)
	}
}

// TestAdminSubmitWaitsForItsExchanges: a submit's answer waits for the
// peer exchanges its decision makes. a's probe of b's half parks; the
// submit does not answer while it is parked, and once the probe runs out
// its budget and fails, a's half starts uncoordinated, as the hold scheme
// falls back on a mate whose status is unknown, and the answer says so.
// Each exchange is bounded by the link's budget, so the admin call is too.
func TestAdminSubmitWaitsForItsExchanges(t *testing.T) {
	p := startPair(t, Config{Domain: config.Domain{Name: "a", Nodes: 8, Scheme: "hold"}, PeerTimeout: 2 * time.Second}, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "hold"}})
	do(t, p.b, func() error { return p.b.mgr.Expect(pairedJob(1, "a")) })
	answer := submitAsync(t, p.a, WireJob{ID: 1, Nodes: 4, Runtime: 3600, Walltime: 3600, Mates: []job.MateRef{{Domain: "b", Job: 1}}})
	x := p.ab.next(t, proto.MethodProbeMate, 1)
	select {
	case resp := <-answer:
		t.Fatalf("submit answered %+v while its probe was parked", resp)
	default:
	}
	p.clk.Advance(p.a.cfg.PeerTimeout)
	x.fail()
	if resp := await(t, answer, "the answer to a's submit"); resp.Error != "" || resp.State != job.Running.String() {
		t.Fatalf("submit whose probe failed answered %+v, want state %s", resp, job.Running)
	}
	if j := jobOf(p.a, 1); j.StartTime != 0 {
		t.Fatalf("a's half started at %d, want 0, the instant it was decided at", j.StartTime)
	}
}
