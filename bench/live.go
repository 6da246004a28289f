package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/live"
	"cosched/internal/peerlink"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// live_pairs parameters.
const (
	// liveNodes is each domain's pool: every job takes a few nodes and runs
	// for liveRuntime, so nothing ever waits for resources and nothing
	// completes inside a run — the scheduler core idles and each pair costs
	// exactly its coordination, as the workload intends.
	liveNodes   = 1 << 20
	liveRuntime = 24 * sim.Hour
	// pairsPerRound is how many pairs make one measured round (≈0.2 s).
	pairsPerRound = 1000
	// A daemon pair lives for roundsPerEpoch rounds and is then replaced by
	// a fresh one. Nothing ever leaves a daemon's job table, so on one
	// long-lived pair memory, the snapshot a compaction writes and the
	// allocations per pair all grow with the pairs a run got through —
	// with the machine's speed. With epochs every run reaches the same
	// table size whatever its speed, and sets up once per epoch.
	roundsPerEpoch = 4
	// liveMinRounds is the least the traced phase measures.
	liveMinRounds = 3
	// warmPairs run inside set-up: the first pair pays both lazy peer dials.
	warmPairs = 20
	// pairTimeout is how long a pair may take before it counts as failed.
	pairTimeout = 10 * time.Second
	// coschedd's defaults for the knobs the daemons are built with.
	snapshotEvery = 1024
	peerTimeout   = 2 * time.Second
)

// jobEvent is a hold or start seen by a daemon's observer.
type jobEvent struct {
	domain  int
	started bool // false: held
	id      job.ID
	wall    time.Time
	at      sim.Time // the virtual instant the manager recorded
}

// pairObserver is a daemon's resmgr.Observer: the journal recorder, as
// coschedd installs it, plus a tap on holds and starts. The tap fires after
// the recorder returns, so a start is only seen once its journal entry is
// durable.
type pairObserver struct {
	*journal.Recorder
	domain int
	events chan<- jobEvent
	holds  int
	yields int
}

func (o *pairObserver) emit(ev jobEvent) {
	ev.domain, ev.wall = o.domain, time.Now()
	select {
	case o.events <- ev:
	default: // nobody is waiting any more (a timed-out pair); never block the scheduler
	}
}

func (o *pairObserver) JobHeld(now sim.Time, j *job.Job) {
	o.Recorder.JobHeld(now, j)
	o.holds++
	o.emit(jobEvent{id: j.ID, at: now})
}

func (o *pairObserver) JobYielded(now sim.Time, j *job.Job) {
	o.Recorder.JobYielded(now, j)
	o.yields++
}

func (o *pairObserver) JobStarted(now sim.Time, j *job.Job) {
	o.Recorder.JobStarted(now, j)
	o.emit(jobEvent{started: true, id: j.ID, at: j.StartTime})
}

// daemon is one scheduling domain wired the way cmd/coschedd wires it:
// manager, wall-clock driver, peer-protocol server on loopback TCP,
// resilient outbound link, write-ahead journal with an fsync per
// transition, and the admin interface.
type daemon struct {
	name      string
	dir       string
	mgr       *resmgr.Manager
	store     *journal.Store
	obs       *pairObserver
	driver    *live.Driver
	peerSrv   *proto.Server
	admin     *live.AdminServer
	link      *peerlink.Link
	peer      *tracedPeer // nil unless traced
	fs        *tracedFS   // nil unless traced
	journalEr int         // journal append/compact errors reported to the recorder
	stop      context.CancelFunc
	done      chan struct{}
	peerAddr  string
	adminAddr string
}

// startDaemon brings one domain up to listening; connect then links it to
// its peer and starts the driver.
func startDaemon(name string, domain int, dir string, fsys journal.FS, rec *recorder, events chan<- jobEvent) (*daemon, error) {
	d := &daemon{name: name, dir: dir, done: make(chan struct{})}
	opt := journal.Options{FsyncInterval: 0, SnapshotEvery: snapshotEvery}
	opt.FS = fsys
	if rec != nil {
		d.fs = &tracedFS{inner: fsys, rec: rec}
		opt.FS = d.fs
	}
	var err error
	if d.store, err = journal.Open(dir, opt); err != nil {
		return nil, err
	}
	d.obs = &pairObserver{
		Recorder: journal.NewRecorder(d.store,
			func() journal.Snapshot { return journal.ManagerSnapshot(d.mgr) },
			func(error) { d.journalEr++ }),
		domain: domain, events: events,
	}
	pol, _ := policy.ByName("wfp")
	eng := sim.NewEngine()
	d.mgr = resmgr.New(eng, resmgr.Options{
		Name:        name,
		Pool:        cluster.New(name, liveNodes),
		Policy:      pol,
		Backfilling: true,
		Cosched:     cosched.DefaultConfig(cosched.Hold),
		Observer:    d.obs,
	})
	d.driver = live.NewDriver(eng, 1.0)
	d.peerSrv = proto.NewServer(d.mgr, d.driver, nil)
	d.admin = live.NewAdminServer(d.mgr, d.driver, nil)
	pa, err := d.peerSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s: peer listen: %w", name, err), d.shutdown())
	}
	aa, err := d.admin.Listen("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s: admin listen: %w", name, err), d.shutdown())
	}
	d.peerAddr, d.adminAddr = pa.String(), aa.String()
	return d, nil
}

// connect installs the outbound link to other and starts pacing the engine.
func (d *daemon) connect(other *daemon, callTimeout time.Duration, failThreshold int, rec *recorder) {
	seed := fnv.New64a()
	fmt.Fprintf(seed, "%s->%s", d.name, other.name)
	d.link = peerlink.New(peerlink.Config{
		Name:          other.name,
		Addr:          other.peerAddr,
		DialTimeout:   2 * time.Second,
		CallTimeout:   callTimeout,
		FailThreshold: failThreshold,
		Seed:          seed.Sum64(),
	})
	if rec != nil {
		d.peer = &tracedPeer{inner: d.link, rec: rec}
		d.mgr.AddPeer(other.name, d.peer)
	} else {
		d.mgr.AddPeer(other.name, d.link)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	driver, done := d.driver, d.done
	go func() {
		driver.Run(ctx)
		close(done)
	}()
}

// shutdown stops the daemon in coschedd's drain order and closes the
// journal, whose error it returns.
func (d *daemon) shutdown() error {
	if d.stop != nil {
		d.stop()
		<-d.done
	}
	d.admin.Close()
	d.peerSrv.Close()
	if d.link != nil {
		d.link.Close()
	}
	return d.store.Close()
}

// pairRig is two daemons plus the closed-loop client that drives them.
type pairRig struct {
	dom    [2]*daemon
	cl     [2]*live.AdminClient
	events chan jobEvent
	next   job.ID
	shapes *workload.RNG // job shapes, from -seed
	rec    *recorder
}

// startRig builds a daemon pair with its journals under dir on fsys and
// runs the warm-up pairs.
func startRig(dir string, fsys journal.FS, seed uint64, rec *recorder, callTimeout time.Duration, failThreshold int) (*pairRig, error) {
	// One pair in flight produces three events; the slack only matters
	// after a timeout, when stale events are dropped rather than queued.
	r := &pairRig{events: make(chan jobEvent, 16), next: 1, shapes: workload.NewRNG(seed), rec: rec}
	for i, name := range []string{"alpha", "beta"} {
		d, err := startDaemon(name, i, filepath.Join(dir, name), fsys, rec, r.events)
		if err != nil {
			return nil, errors.Join(err, r.shutdown())
		}
		r.dom[i] = d
	}
	r.dom[0].connect(r.dom[1], callTimeout, failThreshold, rec)
	r.dom[1].connect(r.dom[0], callTimeout, failThreshold, rec)
	for i, d := range r.dom {
		c, err := live.DialAdmin(d.adminAddr, 2*time.Second)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: admin dial: %w", d.name, err), r.shutdown())
		}
		r.cl[i] = c
	}
	for i := 0; i < warmPairs; i++ {
		if _, err := r.onePair(); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up pair: %w", err), r.shutdown())
		}
	}
	return r, nil
}

// shutdown stops both daemons and returns their journal close errors.
func (r *pairRig) shutdown() error {
	var errs []error
	for i, d := range r.dom {
		if r.cl[i] != nil {
			r.cl[i].Close()
		}
		if d == nil {
			continue
		}
		if err := d.shutdown(); err != nil {
			errs = append(errs, fmt.Errorf("%s: journal close: %w", d.name, err))
		}
	}
	return errors.Join(errs...)
}

// peerFailures sums the peer calls that did not get an answer, over both
// links.
func (r *pairRig) peerFailures() int {
	n := 0
	for _, d := range r.dom {
		s := d.link.Snapshot()
		n += s.TransportErrors + s.RemoteErrors + s.FastFails
	}
	return n
}

// nextPair draws the next pair's identity and shape: each half asks for 1–8
// nodes and a walltime of its own. Shapes come from -seed and cost nothing
// to schedule; the pools never fill.
func (r *pairRig) nextPair() (id job.ID, halves [2]live.WireJob) {
	id = r.next
	r.next++
	for i := range halves {
		halves[i] = live.WireJob{
			ID: id, Nodes: 1 << r.shapes.Intn(4),
			Runtime: liveRuntime, Walltime: liveRuntime + sim.Duration(r.shapes.Intn(int(sim.Hour))),
			Mates: []job.MateRef{{Domain: r.dom[1-i].name, Job: id}},
		}
	}
	return id, halves
}

// pairTimes is what the client saw of one pair.
type pairTimes struct {
	adminRTT time.Duration // the AdminClient.Submit call for half B
	hold     time.Duration // Submit half A → JobHeld
	costart  time.Duration // Submit half B called → the later JobStarted
}

// await returns the next event for (domain, id, started), discarding others.
func (r *pairRig) await(domain int, id job.ID, started bool, deadline time.Time) (jobEvent, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case ev := <-r.events:
			if ev.domain == domain && ev.id == id && ev.started == started {
				return ev, nil
			}
		case <-timer.C:
			return jobEvent{}, fmt.Errorf("pair %d: domain %d did not report started=%v within %v", id, domain, started, pairTimeout)
		}
	}
}

// onePair runs the paper's canonical case once: declare both halves, submit
// half A (which holds, its mate being unsubmitted), submit half B, and wait
// for both to start. An error means the pair failed.
func (r *pairRig) onePair() (pairTimes, error) {
	id, halves := r.nextPair()
	unit := int(id)
	var pt pairTimes
	failuresBefore := r.peerFailures()
	for i, c := range r.cl {
		if err := c.Expect(halves[i]); err != nil {
			return pt, fmt.Errorf("pair %d: expect on %s: %w", id, r.dom[i].name, err)
		}
	}
	deadline := time.Now().Add(pairTimeout)

	end := r.rec.begin("live.hold", unit)
	start := time.Now()
	if err := r.cl[0].Submit(halves[0]); err != nil {
		end()
		return pt, fmt.Errorf("pair %d: submit A: %w", id, err)
	}
	held, err := r.await(0, id, false, deadline)
	end()
	if err != nil {
		return pt, err
	}
	pt.hold = held.wall.Sub(start)

	end = r.rec.begin("live.costart", unit)
	start = time.Now()
	err = r.cl[1].Submit(halves[1])
	pt.adminRTT = time.Since(start)
	var a, b jobEvent
	if err == nil {
		b, err = r.await(1, id, true, deadline)
	}
	if err == nil {
		a, err = r.await(0, id, true, deadline)
	}
	end()
	if err != nil {
		return pt, err
	}
	last := a.wall
	if b.wall.After(last) {
		last = b.wall
	}
	pt.costart = last.Sub(start)
	if a.at != b.at {
		return pt, fmt.Errorf("pair %d: halves started at different virtual instants %d and %d", id, a.at, b.at)
	}
	if n := r.peerFailures() - failuresBefore; n > 0 {
		return pt, fmt.Errorf("pair %d: started after %d peer call(s) failed", id, n)
	}
	return pt, nil
}

// pairRound drives pairsPerRound pairs and returns their co-start
// latencies; failed pairs are counted, not fatal.
func (r *pairRig) pairRound(e *env, keep *[]pairTimes) (int, []time.Duration, error) {
	units := make([]time.Duration, 0, pairsPerRound)
	for i := 0; i < pairsPerRound; i++ {
		pt, err := r.onePair()
		e.attempted++
		if err != nil {
			e.failed++
			if e.failed <= 5 {
				e.info[fmt.Sprintf("failed_pair_%d", e.failed)] = err.Error()
			}
			continue
		}
		units = append(units, pt.costart)
		if keep != nil {
			*keep = append(*keep, pt)
		}
	}
	if len(units) == 0 {
		return 0, nil, fmt.Errorf("every pair of a round failed")
	}
	return 2 * len(units), units, nil
}

// verifyRecovery reopens a stopped daemon's journal cold, replays it into a
// fresh manager and checks the recovery invariants: no violation, and every
// submitted job accounted for in the running state (failed of the pairs may
// have stopped short of it).
func verifyRecovery(e *env, d *daemon, pairs, failed int) (recoverMs float64, err error) {
	start := time.Now()
	store, err := journal.Open(d.dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	snap, entries := store.Recovered()
	if torn := store.Torn(); torn != nil {
		e.failf("%s: journal ended in a torn record after a clean shutdown: %v", d.name, torn)
	}
	if err := store.Close(); err != nil {
		return 0, err
	}
	st, err := journal.Replay(snap, entries)
	if err != nil {
		return 0, fmt.Errorf("%s: replay: %w", d.name, err)
	}
	pol, _ := policy.ByName("wfp")
	fresh := resmgr.New(sim.NewEngine(), resmgr.Options{
		Name: d.name, Pool: cluster.New(d.name, liveNodes), Policy: pol, Backfilling: true,
		Cosched: cosched.DefaultConfig(cosched.Hold),
	})
	stats, err := journal.Restore(fresh, st)
	if err != nil {
		return 0, fmt.Errorf("%s: restore: %w", d.name, err)
	}
	recoverMs = float64(time.Since(start)) / float64(time.Millisecond)
	for _, v := range invariant.VerifyRecovery(fresh, st.Jobs) {
		e.failf("%s: recovery invariant: %s", d.name, v)
	}
	// A failed pair may have stopped short of running; every other job must
	// have come back running.
	if stats.Total() != pairs || stats.Running < pairs-failed {
		e.failf("%s: recovered %d jobs (%s), want %d with at least %d running", d.name, stats.Total(), stats, pairs, pairs-failed)
	}
	e.info["recovered."+d.name] = stats.String()
	return recoverMs, nil
}

// liveEpoch is one life of a daemon pair: start it (timed as a set-up
// sample), drive roundsPerEpoch rounds (fewer once deadline has passed),
// stop it, and check that both journals recover cold. It removes the
// epoch's journals afterwards.
func liveEpoch(e *env, fsys journal.FS, epoch int, deadline time.Time) (setup stretch, rounds []round, err error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("epoch%d", epoch))
	var rig *pairRig
	setup, err = timeStretch(func() (err error) {
		rig, err = startRig(dir, fsys, e.seed+uint64(epoch)<<32, nil, peerTimeout, 3)
		return err
	})
	if err != nil {
		return setup, nil, err
	}
	failedBefore := e.failed
	for i := 0; i < roundsPerEpoch && err == nil && (i == 0 || time.Now().Before(deadline)); i++ {
		var r round
		if r, err = timeRound(func(func()) (int, []time.Duration, error) { return rig.pairRound(e, nil) }); err == nil {
			rounds = append(rounds, r)
		}
	}
	pairs := int(rig.next - 1)
	if serr := rig.shutdown(); serr != nil {
		e.failf("%v", serr)
	}
	if err != nil {
		return setup, nil, err
	}
	for _, d := range rig.dom {
		if d.journalEr > 0 {
			e.failf("%s: %d journal append/compact error(s)", d.name, d.journalEr)
		}
		if _, err := verifyRecovery(e, d, pairs, e.failed-failedBefore); err != nil {
			return setup, nil, err
		}
	}
	return setup, rounds, os.RemoveAll(dir)
}

func runLivePairs(e *env) error {
	// End-to-end runs keep the journal's writes but not its fsyncs (see
	// unsyncedFS). A traced run measures on the real disk, reference rounds
	// included, and reports what the fsyncs cost there.
	budget, fsys := e.seconds, journal.FS(unsyncedFS{})
	if e.rec != nil {
		budget, fsys = budget/3, journal.OSFS{}
	}
	var setups []stretch
	var rounds []round
	for deadline := time.Now().Add(budget); len(setups) == 0 || time.Now().Before(deadline); {
		setup, rs, err := liveEpoch(e, fsys, len(setups), deadline)
		if err != nil {
			return err
		}
		setups, rounds = append(setups, setup), append(rounds, rs...)
	}
	if e.rec == nil {
		e.setEndToEnd(setups, rounds)
		return nil
	}
	return e.tracedLivePairs(rounds)
}

// unsyncedFS is the operating system's filesystem with every fsync turned
// into a no-op: the store still frames, writes, compacts and renames, and
// the kernel still takes the bytes, but nothing waits for the disk. On the
// reference machine's shared disk a pair took 1.9 ms with its eight fsyncs
// (100–400 µs each) and 0.27 ms without, and the fsync latency moved by
// ±20 % with the host's other tenants — live_pairs measured the neighbours'
// disk traffic, and a change to peerlink, proto or live could not show.
type unsyncedFS struct{ journal.OSFS }

func (f unsyncedFS) OpenFile(path string, flag int, perm fs.FileMode) (journal.File, error) {
	file, err := f.OSFS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{file}, nil
}

func (unsyncedFS) SyncDir(string) error { return nil }

type unsyncedFile struct{ journal.File }

func (unsyncedFile) Sync() error { return nil }

// tracedFS is the benchmark's decorator at the journal.FS seam: it forwards
// every call and times what the store does to its write-ahead log — each
// append's write and fsync — and each compaction, from opening the
// snapshot's temporary file to the rename that publishes it. It is called
// under the store's lock and read after the daemon has stopped.
type tracedFS struct {
	inner journal.FS
	rec   *recorder

	writes, syncs, compacts []time.Duration
	walBytes                int64
	compactStart            time.Time
	compactEnd              func()
}

var _ journal.FS = (*tracedFS)(nil)

func (f *tracedFS) MkdirAll(dir string, perm fs.FileMode) error { return f.inner.MkdirAll(dir, perm) }
func (f *tracedFS) ReadFile(path string) ([]byte, error)        { return f.inner.ReadFile(path) }
func (f *tracedFS) Truncate(path string, size int64) error      { return f.inner.Truncate(path, size) }
func (f *tracedFS) SyncDir(dir string) error                    { return f.inner.SyncDir(dir) }

func (f *tracedFS) OpenFile(path string, flag int, perm fs.FileMode) (journal.File, error) {
	// The store appends to its log and truncates-and-rewrites its snapshot
	// temporary; the open flags tell the two apart without knowing names.
	wal := flag&os.O_APPEND != 0
	if !wal {
		f.compactStart = time.Now()
		f.compactEnd = f.rec.begin("journal.compact", -1)
	}
	file, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: file, fs: f, wal: wal}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.inner.Rename(oldpath, newpath)
	if f.compactEnd != nil {
		f.compacts = append(f.compacts, time.Since(f.compactStart))
		f.compactEnd()
		f.compactEnd = nil
	}
	return err
}

// tracedFile forwards the open-handle calls, timing those on the log.
type tracedFile struct {
	inner journal.File
	fs    *tracedFS
	wal   bool
}

func (t *tracedFile) Write(p []byte) (int, error) {
	if !t.wal {
		return t.inner.Write(p)
	}
	end := t.fs.rec.begin("journal.write", -1)
	start := time.Now()
	n, err := t.inner.Write(p)
	t.fs.writes = append(t.fs.writes, time.Since(start))
	end()
	t.fs.walBytes += int64(n)
	return n, err
}

func (t *tracedFile) Sync() error {
	if !t.wal {
		return t.inner.Sync()
	}
	end := t.fs.rec.begin("journal.fsync", -1)
	start := time.Now()
	err := t.inner.Sync()
	t.fs.syncs = append(t.fs.syncs, time.Since(start))
	end()
	return err
}

func (t *tracedFile) Truncate(size int64) error { return t.inner.Truncate(size) }
func (t *tracedFile) Close() error              { return t.inner.Close() }

// Symmetric-submission diagnostic parameters, small enough that the worst
// case (every pair stalls for the call timeout) adds 5 s to a traced run.
const (
	symPairs       = 50
	symCallTimeout = 100 * time.Millisecond
)

// symStallShare submits both halves of symPairs pairs at once. Each
// scheduler holds its driver lock while calling the other, so some
// pairs only resolve when a peer call times out, and the link's redial
// backoff then fast-fails the calls of the pairs right behind them. The
// share that stalled (took at least the call timeout, or saw a peer call go
// unanswered) swings with the machine's fsync latency — far too noisy to
// gate, so it is a diagnostic only.
func symStallShare(dir string, seed uint64) (share float64, err error) {
	// A breaker that never trips keeps one stall from fast-failing the
	// pairs after it.
	rig, err := startRig(dir, journal.OSFS{}, seed, nil, symCallTimeout, 1<<30)
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, rig.shutdown()) }()
	stalls := 0
	for i := 0; i < symPairs; i++ {
		id, halves := rig.nextPair()
		for i, c := range rig.cl {
			if err := c.Expect(halves[i]); err != nil {
				return 0, err
			}
		}
		before := rig.peerFailures()
		start := time.Now()
		// Back to back, without waiting for half A to hold: Submit returns
		// once the submission is scheduled, so the two schedulers decide at
		// overlapping moments.
		for i, c := range rig.cl {
			if err := c.Submit(halves[i]); err != nil {
				return 0, err
			}
		}
		// Both halves must start; either may hold first.
		stalled := false
		timer := time.NewTimer(pairTimeout)
		for started := 0; started < 2 && !stalled; {
			select {
			case ev := <-rig.events:
				if ev.id == id && ev.started {
					started++
				}
			case <-timer.C:
				stalled = true
			}
		}
		timer.Stop()
		if stalled || time.Since(start) >= symCallTimeout || rig.peerFailures() > before {
			stalls++
		}
	}
	return float64(stalls) / symPairs, nil
}

// tracedLivePairs is the traced half of a live_pairs run: a second daemon
// pair with the peer and filesystem decorators installed, compared against
// the plain rounds the caller already measured.
func (e *env) tracedLivePairs(plain []round) (err error) {
	rig, err := startRig(filepath.Join(e.tmp, "traced"), journal.OSFS{}, e.seed, e.rec, peerTimeout, 3)
	if err != nil {
		return err
	}
	defer func() {
		if rig != nil {
			err = errors.Join(err, rig.shutdown())
		}
	}()
	var statsBefore [2]journal.Stats
	var callsBefore [2]int
	for i, d := range rig.dom {
		statsBefore[i] = d.store.Stats()
		callsBefore[i] = d.link.Snapshot().Calls
		// Decorator samples from the warm-up pairs are not part of the run.
		d.peer.durs, d.peer.calls = nil, peerCalls{}
		d.fs.writes, d.fs.syncs, d.fs.compacts, d.fs.walBytes = nil, nil, nil, 0
	}
	mark := e.rec.mark()
	failedBefore := e.failed
	var times []pairTimes
	traced, err := measure(e.seconds/3, liveMinRounds, func(func()) (int, []time.Duration, error) { return rig.pairRound(e, &times) })
	if err != nil {
		return err
	}
	pairs := float64(len(times) + e.failed - failedBefore)
	spans := e.rec.since(mark)

	var calls peerCalls
	var callDurs, writes, syncs, compacts []time.Duration
	var appends, fsyncs, ncompacts, walBytes, linkCalls, retries, transportErrs, holds, yields float64
	for i, d := range rig.dom {
		st, snap := d.store.Stats(), d.link.Snapshot()
		appends += float64(st.Appends - statsBefore[i].Appends)
		fsyncs += float64(st.Fsyncs - statsBefore[i].Fsyncs)
		ncompacts += float64(st.Compacts - statsBefore[i].Compacts)
		linkCalls += float64(snap.Calls - callsBefore[i])
		retries += float64(snap.Retries)
		transportErrs += float64(snap.TransportErrors)
		calls.add(d.peer.calls)
		callDurs = append(callDurs, d.peer.durs...)
		writes = append(writes, d.fs.writes...)
		syncs = append(syncs, d.fs.syncs...)
		compacts = append(compacts, d.fs.compacts...)
		walBytes += float64(d.fs.walBytes)
		holds += float64(d.obs.holds)
		yields += float64(d.obs.yields)
	}
	// The observers counted the warm-up pairs too: one hold each.
	holds -= warmPairs

	e.metrics["cosched.peer_calls"] = float64(calls.total())
	for i, m := range peerMethods {
		e.metrics["cosched.peer_calls."+m] = float64(calls[i])
	}
	e.metrics["cosched.peer_calls_per_pair"] = float64(calls.total()) / pairs
	e.metrics["cosched.holds_per_pair"] = holds / pairs
	e.metrics["cosched.yields_per_pair"] = yields / pairs
	e.metrics["peerlink.calls_per_pair"] = linkCalls / pairs
	us := inUnits(callDurs, time.Microsecond)
	e.metrics["peerlink.call_us_p50"] = percentile(us, 50)
	e.metrics["peerlink.call_us_p95"] = percentile(us, 95)
	e.metrics["peerlink.retries"] = retries
	e.metrics["peerlink.transport_errors"] = transportErrs

	// Peer-call time inside the co-start window over the window itself.
	var peerNs, costartNs int64
	for _, s := range spans {
		switch {
		case s.Name == "live.costart":
			costartNs += s.End - s.Start
		case s.Name == "peerlink.call" && s.Parent >= 0 && spans[s.Parent].Name == "live.costart":
			peerNs += s.End - s.Start
		}
	}
	if costartNs > 0 {
		e.metrics["live.peer_time_share"] = float64(peerNs) / float64(costartNs)
	}
	var rtt, hold, costart []time.Duration
	for _, pt := range times {
		rtt, hold, costart = append(rtt, pt.adminRTT), append(hold, pt.hold), append(costart, pt.costart)
	}
	e.metrics["live.admin_rtt_us_p50"] = percentile(inUnits(rtt, time.Microsecond), 50)
	e.metrics["live.hold_us_p50"] = percentile(inUnits(hold, time.Microsecond), 50)
	cms := inUnits(costart, time.Millisecond)
	e.metrics["live.costart_p50_ms"] = percentile(cms, 50)
	e.metrics["live.costart_p95_ms"] = percentile(cms, 95)
	e.metrics["live.costart_p99_ms"] = percentile(cms, 99)
	e.metrics["live.costart_max_ms"] = cms[len(cms)-1]
	e.info["costart_samples"] = len(cms)
	e.info["costart_highest_backed_percentile"] = tailPercentile(len(cms), tailLadder)

	e.metrics["journal.appends_per_pair"] = appends / pairs
	e.metrics["journal.fsyncs_per_pair"] = fsyncs / pairs
	e.metrics["journal.write_us_p50"] = percentile(inUnits(writes, time.Microsecond), 50)
	e.metrics["journal.fsync_us_p50"] = percentile(inUnits(syncs, time.Microsecond), 50)
	e.metrics["journal.fsync_us_p95"] = percentile(inUnits(syncs, time.Microsecond), 95)
	e.metrics["journal.bytes_per_entry"] = walBytes / appends
	e.metrics["journal.compacts"] = ncompacts
	if ms := inUnits(compacts, time.Millisecond); len(ms) > 0 {
		e.metrics["journal.compact_ms_max"] = ms[len(ms)-1]
	}

	untraced := wallMedian(plain)
	e.metrics["trace.overhead_share"] = (wallMedian(traced) - untraced) / untraced
	e.info["untraced_round_s"], e.info["traced_round_s"] = untraced, wallMedian(traced)
	lt := selfTimes(spans)
	for _, name := range []string{"live.hold", "live.costart", "peerlink.call", "journal.write", "journal.fsync", "journal.compact"} {
		e.info["span."+name] = fmt.Sprintf("×%d total=%v self=%v", lt[name].Count, lt[name].Total.Round(time.Microsecond), lt[name].Self.Round(time.Microsecond))
	}

	// Read side, on the journal this run wrote.
	total := int(rig.next - 1)
	doms := rig.dom
	if err := rig.shutdown(); err != nil {
		e.failf("%v", err)
	}
	rig = nil
	var recoverMs, decodeNs, replayNs []float64
	for _, d := range doms {
		ms, err := verifyRecovery(e, d, total, e.failed-failedBefore)
		if err != nil {
			return err
		}
		recoverMs = append(recoverMs, ms)
		dn, rn, err := journalReadSide(d.dir)
		if err != nil {
			return err
		}
		decodeNs, replayNs = append(decodeNs, dn), append(replayNs, rn)
	}
	e.metrics["journal.recover_ms"] = median(recoverMs)
	e.metrics["journal.decode_ns_per_entry"] = median(decodeNs)
	e.metrics["journal.replay_ns_per_entry"] = median(replayNs)

	if e.metrics["proto.encode_ns"], e.metrics["proto.decode_ns"], e.metrics["proto.bytes_per_frame"], err = frameCodec(); err != nil {
		return err
	}
	if e.metrics["proto.tcp_call_us"], err = tcpCallUs(); err != nil {
		return err
	}
	if e.metrics["live.sym_stall_share"], err = symStallShare(filepath.Join(e.tmp, "sym"), e.seed); err != nil {
		return err
	}
	e.info["live.sym_stall_share"] = fmt.Sprintf("noisy diagnostic: %d simultaneous pairs, call timeout %v", symPairs, symCallTimeout)
	return nil
}

// journalReadSide times decoding the write-ahead log a run left in dir and
// replaying the snapshot plus that log, per record.
func journalReadSide(dir string) (decodeNs, replayNs float64, err error) {
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	snap, entries := store.Recovered()
	if err := store.Close(); err != nil {
		return 0, 0, err
	}
	if len(entries) == 0 {
		return 0, 0, nil // the run ended exactly on a compaction
	}
	var wal []byte
	for i := range entries {
		if wal, err = journal.AppendRecord(wal, &entries[i]); err != nil {
			return 0, 0, err
		}
	}
	const reps = 20
	decodeNs = perOp(5, reps*len(entries), func() {
		for i := 0; i < reps; i++ {
			journal.DecodeEntries(wal)
		}
	})
	records := len(entries)
	if snap != nil {
		records += len(snap.Jobs)
	}
	replayNs = perOp(5, reps*records, func() {
		for i := 0; i < reps; i++ {
			if _, rerr := journal.Replay(snap, entries); rerr != nil {
				err = rerr
			}
		}
	})
	return decodeNs, replayNs, err
}
