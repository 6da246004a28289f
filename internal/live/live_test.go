package live

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/config"
	"cosched/internal/job"
	"cosched/internal/obs"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// TestDriverPacesEvents: Run fires an event when the clock, scaled by the
// speedup, reaches its virtual instant, and not before.
func TestDriverPacesEvents(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng, 1000) // 1000 virtual seconds per clock second
	clk := newStepClock()
	clk.pace(d)
	fired := make(chan sim.Time, 1)
	d.Do(func() {
		eng.After(100, sim.PriorityDefault, func(now sim.Time) { fired <- now })
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	clk.Advance(99 * time.Millisecond)
	d.Do(func() {})
	select {
	case now := <-fired:
		t.Fatalf("event due at 100 fired at %d, before the clock reached it", now)
	default:
	}
	clk.Advance(time.Millisecond)
	if now := await(t, fired, "the event due at 100 to fire"); now != 100 {
		t.Fatalf("event fired at %d, want 100", now)
	}
}

func TestDriverClockSyncOnLock(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDriver(eng, 1000)
	clk := newStepClock()
	clk.pace(d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	clk.Advance(200 * time.Millisecond) // 200 virtual seconds
	var now sim.Time
	d.Do(func() { now = eng.Now() })
	if now != 200 {
		t.Fatalf("engine clock %d did not catch up to the clock (200)", now)
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
	clk := newStepClock()
	dom := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "solo", Nodes: 64, Scheme: "hold"}, Speedup: 1})

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
	clk.Advance(time.Second)
	if st, err := c.Status(1); err != nil || !st.Started || st.StartTime != 0 {
		t.Fatalf("job 1 one second after its submission: %+v, %v; want started at 0", st, err)
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
	dom := startTestDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "exp", Nodes: 64, Scheme: "hold"}, Speedup: 1})
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

// adminRoundTrip sends req on conn as an AdminClient would and returns the
// answer whole, State included, which the typed Expect and Submit drop.
func adminRoundTrip(t *testing.T, conn net.Conn, req AdminRequest) AdminResponse {
	t.Helper()
	var resp AdminResponse
	if err := proto.WriteFrame(conn, &req); err != nil {
		t.Fatal(err)
	}
	if err := proto.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdminRefusesSubmitThatDisagreesWithExpect: a submit or a repeated
// expect of an expected job must carry the shape it was expected with; one
// that differs is refused, naming the job and the field, instead of
// silently running the expected shape. A repeated expect that agrees
// answers the job's real state.
func TestAdminRefusesSubmitThatDisagreesWithExpect(t *testing.T) {
	clk := newStepClock()
	dom := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "shape", Nodes: 64, Scheme: "hold"}, Speedup: 1})
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := WireJob{ID: 7, Nodes: 4, Runtime: 3600, Walltime: 7200, Mates: []job.MateRef{{Domain: "other", Job: 7}}}
	if err := c.Expect(w); err != nil {
		t.Fatal(err)
	}
	differs := map[string]func(*WireJob){
		"user":     func(b *WireJob) { b.User = 3 },
		"nodes":    func(b *WireJob) { b.Nodes = 8 },
		"runtime":  func(b *WireJob) { b.Runtime = 1800 },
		"walltime": func(b *WireJob) { b.Walltime = 9000 },
		"mates":    func(b *WireJob) { b.Mates = []job.MateRef{{Domain: "other", Job: 8}} },
	}
	for field, change := range differs {
		bad := w
		change(&bad)
		for op, call := range map[string]func(WireJob) error{OpExpect: c.Expect, OpSubmit: c.Submit} {
			err := call(bad)
			if err == nil {
				t.Fatalf("%s with a different %s accepted", op, field)
			}
			for _, want := range []string{"job 7", field} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s error %q does not name %q", op, err, want)
				}
			}
		}
	}
	if st, err := c.Status(7); err != nil || st.State != job.Unsubmitted.String() {
		t.Fatalf("after the refusals job 7 is %+v, %v; want still unsubmitted", st, err)
	}

	// The agreeing submit goes through, and a repeated expect then answers
	// the state the job is really in.
	if err := c.Submit(w); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if st, err := c.Status(7); err != nil || !st.Started {
		t.Fatalf("job 7 one second after its submission: %+v, %v; want started", st, err)
	}
	conn, err := net.Dial("tcp", dom.adminAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if resp := adminRoundTrip(t, conn, AdminRequest{Seq: 1, Op: OpExpect, Job: &w}); resp.Error != "" || resp.State != job.Running.String() {
		t.Fatalf("repeated expect of a running job answered %+v, want state %s", resp, job.Running)
	}
}

// TestAdminExpectKeepsItsOwnMates: serveConn decodes every frame of a
// connection into one scratch WireJob and one mates array, so the job an
// expect registers must own a copy of its mates; a later frame on the same
// connection naming other mates must leave them as they were.
func TestAdminExpectKeepsItsOwnMates(t *testing.T) {
	dom := startTestDomain(t, newStepClock(), Config{Domain: config.Domain{Name: "keep", Nodes: 64, Scheme: "hold"}, Speedup: 1})
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []job.MateRef{{Domain: "left", Job: 1}}
	for _, w := range []WireJob{
		{ID: 1, Nodes: 1, Runtime: 60, Walltime: 60, Mates: want},
		{ID: 2, Nodes: 1, Runtime: 60, Walltime: 60, Mates: []job.MateRef{{Domain: "right", Job: 2}}},
	} {
		if err := c.Expect(w); err != nil {
			t.Fatal(err)
		}
	}
	var got []job.MateRef
	dom.driver.Do(func() {
		j, _ := dom.mgr.Job(1)
		got = append(got, j.Mates...)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("job 1's mates are %v after a second frame on its connection, want %v", got, want)
	}
}

// TestLiveCoStartOverTCP: two daemons on one stepped clock, linked over
// loopback TCP. a's half holds for ten virtual minutes until b's half
// arrives; b then starts its half and releases a's at the one instant it
// proposes.
func TestLiveCoStartOverTCP(t *testing.T) {
	clk := newStepClock()
	a := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "a", Nodes: 64, Scheme: "hold"}, Speedup: 1})
	b := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "yield"}, Speedup: 1})
	a.Connect("b", b.peerAddr)
	b.Connect("a", a.peerAddr)

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
	// a's submit answered once a's half held, so b's half cannot arrive
	// while a's pass is in flight: two passes in flight at once would
	// stall on each other's driver lock.
	clk.Advance(time.Second)
	if sa, err := ca.Status(1); err != nil || sa.State != job.Holding.String() {
		t.Fatalf("a's half with its mate only expected: %+v, %v; want holding", sa, err)
	}
	clk.Advance(10 * time.Minute)
	if err := cb.Submit(wb); err != nil {
		t.Fatal(err)
	}
	// b's status first: its driver lock is held across the pass that starts
	// b's half and releases a's, so once b answers, a's start is in.
	clk.Advance(time.Second)
	sb, err2 := cb.Status(1)
	sa, err1 := ca.Status(1)
	if err1 != nil || err2 != nil || !sa.Started || !sb.Started {
		t.Fatalf("pair not started after b's half arrived: a %+v, %v; b %+v, %v", sa, err1, sb, err2)
	}
	if sa.StartTime != 601 || sb.StartTime != 601 {
		t.Fatalf("halves started at %d and %d, want both at 601, when b's half arrived", sa.StartTime, sb.StartTime)
	}
}

func TestStatusServer(t *testing.T) {
	clk := newStepClock()
	dom := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "stat", Nodes: 32, Scheme: "hold"}, Speedup: 1, Status: "127.0.0.1:0"})
	addr := dom.statusAddr

	ac, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if err := ac.Submit(WireJob{ID: 9, Name: "probe", Nodes: 8, Runtime: 3600, Walltime: 3600}); err != nil {
		t.Fatal(err)
	}
	// A cancelled job is terminal: it leaves the rows of both pages.
	if err := ac.Submit(WireJob{ID: 10, Name: "withdrawn", Nodes: 8, Runtime: 3600, Walltime: 3600}); err != nil {
		t.Fatal(err)
	}
	if err := ac.Cancel(10); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)

	// JSON endpoint.
	resp, err := http.Get("http://" + addr + "/status.json")
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
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != 9 || snap.Jobs[0].Name != "probe" {
		t.Fatalf("rows = %+v, want job 9's alone (job 10 was cancelled)", snap.Jobs)
	}

	// HTML page.
	resp2, err := http.Get("http://" + addr + "/")
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
	if strings.Contains(string(body), "withdrawn") {
		t.Fatal("status page shows cancelled job 10")
	}
	// Unknown paths 404.
	resp3, err := http.Get("http://" + addr + "/nope")
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
	resp4, err := http.Get("http://" + addr + "/metrics")
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
	resp5, err := http.Get("http://" + addr + "/metrics")
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

// TestStatusReadWithoutAllocatingPerEndedJob: a status read costs what the
// live state costs, not what the history costs. A daemon, started and not
// run, holds one running job beside 1 k and then 100 k ended ones (every
// other one expected and cancelled, the rest restored completed). One
// /metrics collection and one snapshot with rows must allocate about the
// same bytes at both sizes, and the rows must be the running job's alone.
func TestStatusReadWithoutAllocatingPerEndedJob(t *testing.T) {
	d, err := Start(Config{Domain: config.Domain{Name: "hist", Nodes: 8, Scheme: "hold"}, Speedup: 1,
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	running := job.New(1, 4, 0, sim.Hour, sim.Hour)
	running.State = job.Running
	d.driver.Do(func() { err = d.mgr.RestoreJob(running) })
	if err != nil {
		t.Fatal(err)
	}
	next := job.ID(2)
	endUpTo := func(n int) {
		t.Helper()
		d.driver.Do(func() {
			for ; next <= job.ID(n) && err == nil; next++ {
				j := job.New(next, 1, 0, sim.Minute, sim.Minute)
				if next%2 == 0 {
					if err = d.mgr.Expect(j); err == nil {
						err = d.mgr.Cancel(j.ID)
					}
					continue
				}
				j.State = job.Completed
				err = d.mgr.RestoreJob(j)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	bytesPerRead := func(read func()) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var snap StatusSnapshot
	reads := map[string]func(){
		"/metrics":       func() { obs.Render(d.collectMetrics) },
		"snapshot(rows)": func() { snap = d.snapshot(true) },
	}
	var small map[string]uint64
	for _, n := range []int{1_000, 100_000} {
		endUpTo(n)
		got := map[string]uint64{}
		for name, read := range reads {
			got[name] = bytesPerRead(read)
		}
		if len(snap.Jobs) != 1 || snap.Jobs[0].ID != 1 || snap.Jobs[0].State != "running" {
			t.Fatalf("%d ended jobs: %d rows, want running job 1's alone", n, len(snap.Jobs))
		}
		if small == nil {
			small = got
			continue
		}
		// The slack absorbs one more growth step of the exposition's
		// buffer, which wider numbers can cost; a copy of the history
		// alone is 8 B per job, 792 KB more at 100 k.
		for name, b := range got {
			if b > small[name]+16<<10 {
				t.Fatalf("one %s read allocates %d B beside 100 k ended jobs, %d B beside 1 k: it grows with the history", name, b, small[name])
			}
		}
	}
}

func TestAdminCancel(t *testing.T) {
	clk := newStepClock()
	dom := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "cxl", Nodes: 32, Scheme: "hold"}, Speedup: 1})
	c, err := DialAdmin(dom.adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(WireJob{ID: 3, Nodes: 8, Runtime: 100000, Walltime: 100000}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if st, err := c.Status(3); err != nil || !st.Started {
		t.Fatalf("job 3 one second after its submission: %+v, %v; want started", st, err)
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

// TestAdminServerCloseIdleClient: Close on an admin server with a connected,
// idle client returns nil only once the connection's serving goroutine has
// exited, and the client's next call fails on the torn-down connection, not
// with an error the server reported.
func TestAdminServerCloseIdleClient(t *testing.T) {
	eng := sim.NewEngine()
	mgr := resmgr.New(eng, resmgr.Options{Name: "idle", Pool: cluster.New("idle", 10)})
	before := runtime.NumGoroutine()
	as := NewAdminServer(mgr, NewDriver(eng, 1), nil)
	addr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialAdmin(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Info(); err != nil { // the connection is now being served
		t.Fatal(err)
	}
	if err := as.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stacks := make([]byte, 1<<20)
	if n := runtime.Stack(stacks, true); strings.Contains(string(stacks[:n]), "(*AdminServer).serveConn") {
		t.Fatal("Close returned while serveConn was still running")
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 200 {
			t.Fatalf("goroutines: %d before Listen, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond) // a goroutine past wg.Done may not have exited yet
	}
	_, err = c.Info()
	var opErr *net.OpError
	if err == nil || !errors.Is(err, io.EOF) && !errors.As(err, &opErr) {
		t.Fatalf("Info after Close = %v, want the closed connection's error", err)
	}
}
