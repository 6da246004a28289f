package live

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cosched/internal/config"
	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/invariant"
	"cosched/internal/journal"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// reconcileRetry is how long after a failed mate-reconciliation exchange
// with a peer began a restarted daemon retries it, on its driver's clock.
const reconcileRetry = 2 * time.Second

// Config configures one daemon. Its scheduling half is a config.Domain,
// built as the simulator builds one (Domain.DomainConfig, then
// coupled.NewManager), except that a daemon always coschedules, whatever
// CoschedEnabled says. Start refuses the keys a daemon cannot honour: the
// workload keys, as its jobs arrive over admin, and queues, whose routing is
// computed from a trace. cmd/coschedd sets the fields its flags name and
// validates them; a non-positive Speedup panics as in NewDriver.
type Config struct {
	config.Domain
	Listen           string            // -listen: peer-protocol address
	Admin            string            // -admin: admin (submit/status) address
	Speedup          float64           // -speedup: virtual seconds per wall second
	PeerTimeout      time.Duration     // -peer-timeout: per-call peer budget (0 = peerlink's default)
	Status           string            // -status: status page address ("" = none)
	JournalDir       string            // -journal-dir ("" = no journal)
	SnapshotEvery    int               // -snapshot-every: fewest journal entries between snapshots
	DegradedMaxHolds int               // -degraded-max-holds (-1 = unlimited)
	Peers            map[string]string // -peer name=addr, repeatable

	// fs replaces the journal's filesystem so tests can inject storage
	// faults; nil is the real disk.
	fs journal.FS
}

// Daemon is one live scheduling domain: a resource manager paced by a
// Driver, serving the peer protocol, the admin interface and optionally the
// status page, journaled and recovered when a journal directory is set.
// Start builds it, Connect links it to peers, Run serves until its context
// ends and then drains.
type Daemon struct {
	cfg    Config
	logger *log.Logger
	driver *Driver
	mgr    *resmgr.Manager
	peer   *proto.Server
	admin  *AdminServer
	status *http.Server

	store *journal.Store
	rec   *journal.Recorder

	peerAddr, adminAddr, statusAddr string

	degradeOnce sync.Once

	// mu guards the state the status page reads beside the driver: the
	// links, the recovery summary and the degradation reason.
	mu       sync.Mutex
	links    []*peerlink.Link
	recovery *RecoveryInfo
	degraded string
}

// Start builds a daemon and opens its listeners, in this order: journal
// and recorder, manager, journal recovery, driver, peer server, peer links,
// admin server, status page. It logs through logger (nil discards). On
// error everything opened so far is closed again.
func Start(cfg Config, logger *log.Logger) (_ *Daemon, err error) {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	switch {
	case cfg.TraceFile != "":
		return nil, fmt.Errorf(`live: domain %q: "trace_file" is refused: a daemon's jobs arrive over admin`, cfg.Name)
	case cfg.Synthetic != nil:
		return nil, fmt.Errorf(`live: domain %q: "synthetic" is refused: a daemon's jobs arrive over admin`, cfg.Name)
	}
	dc, err := cfg.Domain.DomainConfig(nil)
	if err != nil {
		return nil, err
	}
	dc.Cosched.Enabled = true
	d := &Daemon{cfg: cfg, logger: logger}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	// The journal store opens — and recovers its contents — before the
	// manager exists; the recorder is the manager's observer, so its very
	// first transition is already journaled. Its snapshot source reads
	// d.mgr: observer callbacks only fire from the manager itself, so it is
	// always set by then. Without a journal the manager has no observer
	// (dc.Observer stays a nil interface, not a nil *Recorder in one).
	if cfg.JournalDir != "" {
		if d.store, err = journal.Open(cfg.JournalDir, journal.Options{SnapshotEvery: cfg.SnapshotEvery, FS: cfg.fs}); err != nil {
			return nil, err
		}
		d.rec = journal.NewRecorder(d.store,
			func() journal.Snapshot { return journal.ManagerSnapshot(d.mgr) },
			d.journalFailed)
		dc.Observer = d.rec
	}

	eng := sim.NewEngine()
	if d.mgr, err = coupled.NewManager(eng, dc); err != nil {
		return nil, err
	}
	if err = d.recoverFromJournal(); err != nil {
		return nil, err
	}
	d.driver = NewDriver(eng, cfg.Speedup)

	// Peer protocol server: remote domains coordinate against our manager.
	d.peer = proto.NewServer(d.mgr, d.driver, logger)
	peerAddr, err := d.peer.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("peer listen: %w", err)
	}
	d.peerAddr = peerAddr.String()
	logger.Printf("peer protocol on %s", peerAddr)

	// Sorted, so the links — and the status page, reconciliation and drain
	// that walk them — keep one order on every start.
	names := make([]string, 0, len(cfg.Peers))
	for name := range cfg.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Connect(name, cfg.Peers[name])
	}

	d.admin = NewAdminServer(d.mgr, d.driver, logger)
	adminAddr, err := d.admin.Listen(cfg.Admin)
	if err != nil {
		return nil, fmt.Errorf("admin listen: %w", err)
	}
	d.adminAddr = adminAddr.String()
	logger.Printf("admin interface on %s", adminAddr)
	logger.Printf("domain %s: %d nodes, scheme=%s, policy=%s, speedup=%.0fx",
		cfg.Name, cfg.Nodes, dc.Cosched.Scheme, dc.Policy.Name(), cfg.Speedup)

	if cfg.Status != "" {
		if err = d.serveStatus(cfg.Status); err != nil {
			return nil, fmt.Errorf("status listen: %w", err)
		}
		logger.Printf("status page on http://%s/ (metrics on /metrics)", d.statusAddr)
	}
	return d, nil
}

// PeerAddr is the bound peer-protocol address.
func (d *Daemon) PeerAddr() string { return d.peerAddr }

// AdminAddr is the bound admin address.
func (d *Daemon) AdminAddr() string { return d.adminAddr }

// Connect adds the remote domain name, serving the peer protocol on addr,
// as a peer: a resilient link (lazy dial, circuit breaker), so
// daemons can start in any order and survive peer outages without stalling
// the scheduler. peerlink's defaults tune it, except for the per-call
// budget, which is Config.PeerTimeout, and the clock, which is the
// daemon's.
func (d *Daemon) Connect(name, addr string) *peerlink.Link {
	l := peerlink.New(peerlink.Config{
		Name:        name,
		Addr:        addr,
		CallTimeout: d.cfg.PeerTimeout,
		Logger:      d.logger, // breaker transitions: peer, from -> to (cause)
		Now:         d.driver.now,
	})
	d.addPeer(l, l)
	return l
}

// addPeer registers l for reconciliation, drain and the status page, and
// hands the manager p for its peer calls — l itself, or a wrapper around
// it.
func (d *Daemon) addPeer(l *peerlink.Link, p cosched.Peer) {
	d.mu.Lock()
	d.links = append(d.links, l)
	d.mu.Unlock()
	d.driver.Do(func() { d.mgr.AddPeer(l.PeerName(), p) })
}

// peerLinks returns the links added so far.
func (d *Daemon) peerLinks() []*peerlink.Link {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*peerlink.Link(nil), d.links...)
}

// Run paces the engine until ctx ends, reconciling with every peer first
// if the daemon recovered from its journal, then drains and closes
// everything Start opened.
func (d *Daemon) Run(ctx context.Context) {
	defer d.close()
	// A recovered daemon reconciles its restored holds with every peer: the
	// crash may have orphaned pairs on either side. Runs beside the driver
	// because each exchange is a peer RPC that must be able to retry while
	// the scheduler keeps serving. Until it starts, nothing but Start has
	// written d.recovery.
	if links := d.peerLinks(); d.recovery != nil && len(links) > 0 {
		go d.reconcilePeers(ctx, links)
	}
	d.driver.Run(ctx)
	d.logger.Print("shutting down")
	links := d.peerLinks()
	d.drain(links)
	for _, l := range links {
		s := l.Snapshot()
		d.logger.Printf("peer %s: state=%s calls=%d ok=%d remote=%d transport=%d fastfail=%d retries=%d dials=%d trips=%d",
			s.Name, s.State, s.Calls, s.Successes, s.RemoteErrors, s.TransportErrors,
			s.FastFails, s.Retries, s.Dials, s.Trips)
	}
}

// close releases whatever Start opened, in reverse order. Every step is
// safe to repeat.
func (d *Daemon) close() {
	if d.status != nil {
		d.status.Close()
	}
	if d.admin != nil {
		d.admin.Close()
	}
	links := d.peerLinks()
	for i := len(links) - 1; i >= 0; i-- {
		links[i].Close()
	}
	if d.peer != nil {
		d.peer.Close()
	}
	if d.store != nil {
		//simlint:allow R7 crash backstop only: the graceful drain path closes the store with error logging first, and a second Close returns nil
		d.store.Close()
	}
}

// journalFailed is the recorder's error hook and the storage-fault
// degradation controller: the first time the store poisons (failed fsync,
// disk full, write error) the daemon abandons the journal — loudly —
// instead of crashing or silently pretending transitions are durable.
// Poisoning is permanent (a failed fsync may have dropped dirty pages —
// fsyncgate), so it degrades on the first sign rather than logging the same
// dead store forever. Scheduling continues journal-less under the
// -degraded-max-holds budget, and the status page and /metrics flip to
// degraded. It runs inside a manager transition, under the driver lock.
func (d *Daemon) journalFailed(err error) {
	d.logger.Printf("journal: %v", err)
	cause := d.store.Poisoned()
	if cause == nil {
		return
	}
	d.degradeOnce.Do(func() {
		budget := "unlimited concurrent holds"
		if d.cfg.DegradedMaxHolds >= 0 {
			budget = fmt.Sprintf("at most %d concurrent hold(s)", d.cfg.DegradedMaxHolds)
		}
		reason := fmt.Sprintf("journal abandoned after storage fault: %v — running journal-less (transitions NOT durable), %s", cause, budget)
		d.logger.Printf("DEGRADED: %s", reason)
		d.rec.Detach()
		d.mgr.SetHoldBudget(d.cfg.DegradedMaxHolds)
		d.mu.Lock()
		d.degraded = reason
		d.mu.Unlock()
	})
}

// recoverFromJournal rebuilds the manager from what the store's Open pass
// found: replay the snapshot + WAL tail into final job states, re-install
// them, check the recovery invariants, and compact the journal to a fresh
// baseline so the next boot starts from one snapshot. It leaves d.recovery
// nil when there was nothing to recover (no journal, or one that holds no
// job); a fresh journal still gets that first snapshot, so that every
// journal directory names its domain.
func (d *Daemon) recoverFromJournal() error {
	if d.store == nil {
		return nil
	}
	snap, entries := d.store.Recovered()
	if (snap == nil || len(snap.Jobs) == 0) && len(entries) == 0 {
		return d.store.Compact(journal.ManagerSnapshot(d.mgr))
	}
	torn := d.store.Torn()
	if torn != nil {
		d.logger.Printf("journal: %v", torn)
	}
	st, err := journal.Replay(snap, entries)
	if err != nil {
		return err
	}
	stats, err := journal.Restore(d.mgr, st)
	if err != nil {
		return err
	}
	for _, v := range invariant.VerifyRecovery(d.mgr, st.Jobs) {
		d.logger.Printf("RECOVERY INVARIANT VIOLATION: %s", v)
	}
	d.logger.Printf("recovered at t=%d: snapshot seq %d + %d entries, %d jobs (%s)",
		st.T, st.SnapshotSeq, st.Entries, stats.Total(), stats)
	// Fold the recovered state into one fresh snapshot so the next restart
	// replays from here, not from the whole pre-crash history.
	if err := d.store.Compact(journal.ManagerSnapshot(d.mgr)); err != nil {
		return err
	}
	d.recovery = &RecoveryInfo{
		At:       st.T,
		Snapshot: st.SnapshotSeq,
		Entries:  st.Entries,
		Restored: stats.Total(),
	}
	if torn != nil {
		d.recovery.Torn = torn.Error()
	}
	return nil
}

// reconcilePeers drives the caller side of the post-restart mate
// reconciliation handshake against every peer, retrying per peer until the
// exchange succeeds or ctx ends. Each outcome is logged and published to
// the status page. The manager is touched only inside driver.Do, like the
// proto server's inbound calls.
func (d *Daemon) reconcilePeers(ctx context.Context, links []*peerlink.Link) {
	var done []string
	for _, l := range links {
		for {
			var rep resmgr.ReconcileReport
			var err error
			var retry <-chan struct{}
			d.driver.Do(func() {
				if rep, err = d.mgr.ReconcileWith(l.PeerName(), l); err != nil {
					retry = d.driver.afterLocked(reconcileRetry)
				}
			})
			if err == nil {
				detail := fmt.Sprintf("reconciled with %s: sent=%d co_starts=%d adopted=%d released=%d kept=%d",
					rep.Peer, rep.Sent, rep.CoStarts, rep.Adopted, rep.Released, rep.Kept)
				d.logger.Print(detail)
				done = append(done, detail)
				d.mu.Lock()
				info := *d.recovery
				info.Reconcile = strings.Join(done, "; ")
				info.Reconciled = len(done)
				d.recovery = &info
				d.mu.Unlock()
				break
			}
			d.logger.Printf("reconcile with %s: %v (retrying in %v)", l.PeerName(), err, reconcileRetry)
			select {
			case <-ctx.Done():
				return
			case <-retry:
			}
		}
	}
}

// drain is the graceful-shutdown path. Ordering matters:
//
//  1. the peer server closes first, so no inbound peer call can create a
//     new hold on our side while we are announcing our departure;
//  2. every peer is told (best effort) that our paired jobs are now
//     status-unknown, so a remote holder waiting on one of them releases
//     immediately instead of waiting out its release interval against a
//     dead daemon;
//  3. the journal syncs and closes, making every transition durable before
//     the process exits.
func (d *Daemon) drain(links []*peerlink.Link) {
	d.peer.Close()
	var views map[string][]cosched.MateView
	d.driver.Do(func() { views = d.mgr.DrainViews() })
	for _, l := range links {
		vs, ok := views[l.PeerName()]
		if !ok {
			continue
		}
		if _, err := l.ReconcileMates(d.cfg.Name, vs); err != nil {
			d.logger.Printf("drain: notify %s: %v", l.PeerName(), err)
			continue
		}
		d.logger.Printf("drain: notified %s about %d in-flight pair view(s)", l.PeerName(), len(vs))
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			d.logger.Printf("drain: journal close: %v", err)
		}
	}
}
