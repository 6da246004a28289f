// The daemon run path: build the manager, recover from the journal if one
// exists, serve the peer/admin/status interfaces, reconcile mates after a
// restart, and drain gracefully on SIGTERM.
package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/eventlog"
	"cosched/internal/invariant"
	"cosched/internal/journal"
	"cosched/internal/live"
	"cosched/internal/peerlink"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// reconcileRetry is how long a restarted daemon waits before retrying a
// failed mate-reconciliation exchange with a peer.
const reconcileRetry = 2 * time.Second

// runDaemon runs one coschedd process until SIGINT/SIGTERM, then drains.
func runDaemon(cfg *daemonConfig) error {
	logger := log.New(os.Stderr, fmt.Sprintf("[%s] ", cfg.name), log.LstdFlags)

	sch, err := cosched.ParseScheme(cfg.scheme)
	if err != nil {
		return err
	}
	pol, ok := policy.ByName(cfg.polName)
	if !ok {
		return fmt.Errorf("unknown policy %q", cfg.polName)
	}

	var pool *cluster.Pool
	if cfg.minPart > 0 {
		pool = cluster.NewPartitioned(cfg.name, cfg.nodes, cfg.minPart)
	} else {
		pool = cluster.New(cfg.name, cfg.nodes)
	}

	obsList := resmgr.Tee{logObserver{l: logger}}
	var elog *eventlog.Log // nil unless -log is set; also records peer-breaker transitions
	if cfg.logPath != "" {
		lf, err := openEventLog(cfg.logPath)
		if err != nil {
			return fmt.Errorf("event log: %w", err)
		}
		defer lf.Close()
		elog = eventlog.New(lf)
		defer elog.Flush()
		obsList = append(obsList, elog.Observer(cfg.name))
	}

	// The journal store opens — and recovers its contents — before the
	// manager exists; the recorder joins the observer tee so the manager's
	// very first transition is already journaled. Its snapshot source
	// closes over the mgr variable assigned below: observer callbacks only
	// fire from the manager itself, so mgr is always set by then.
	var mgr *resmgr.Manager
	var store *journal.Store
	var rec *journal.Recorder
	var statusSrv *live.StatusServer // assigned below when -status is set

	// degradeJournal is the storage-fault degradation controller: the first
	// time the store poisons (failed fsync, disk full, write error) the
	// daemon abandons the journal — loudly — instead of crashing or silently
	// pretending transitions are durable. Scheduling continues journal-less
	// under the -degraded-max-holds budget, and the status page + /metrics
	// flip to degraded so operators see it immediately.
	var degradeOnce sync.Once
	degradeJournal := func(cause error) {
		degradeOnce.Do(func() {
			budget := "unlimited concurrent holds"
			if cfg.degradedMaxHolds >= 0 {
				budget = fmt.Sprintf("at most %d concurrent hold(s)", cfg.degradedMaxHolds)
			}
			reason := fmt.Sprintf("journal abandoned after storage fault: %v — running journal-less (transitions NOT durable), %s", cause, budget)
			logger.Printf("DEGRADED: %s", reason)
			rec.Detach()
			mgr.SetHoldBudget(cfg.degradedMaxHolds)
			if statusSrv != nil {
				statusSrv.SetDegraded(reason)
			}
		})
	}

	if cfg.journalDir != "" {
		store, err = journal.Open(cfg.journalDir, journal.Options{
			FsyncInterval: cfg.journalFS,
			SnapshotEvery: cfg.snapEvery,
		})
		if err != nil {
			return err
		}
		//simlint:allow R7 crash backstop only: the graceful drain path closes the store with error logging first, and a second Close returns nil
		defer store.Close()
		rec = journal.NewRecorder(store,
			func() journal.Snapshot { return journal.ManagerSnapshot(mgr) },
			func(err error) {
				logger.Printf("journal: %v", err)
				// Poisoning is permanent (a failed fsync may have dropped
				// dirty pages — fsyncgate), so degrade on the first sign
				// rather than logging the same dead store forever.
				if perr := store.Poisoned(); perr != nil {
					degradeJournal(perr)
				}
			})
		obsList = append(obsList, rec)
	}

	eng := sim.NewEngine()
	mgr = resmgr.New(eng, resmgr.Options{
		Name:        cfg.name,
		Pool:        pool,
		Policy:      pol,
		Backfilling: cfg.backfill,
		Cosched: cosched.Config{
			Enabled:         true,
			Scheme:          sch,
			ReleaseInterval: sim.Duration(cfg.releaseMin) * sim.Minute,
			MaxHeldFraction: cfg.maxHeld,
			MaxYields:       cfg.maxYields,
		},
		Observer: obsList,
	})

	recInfo, err := recoverFromJournal(store, mgr, elog, logger)
	if err != nil {
		return err
	}

	driver := live.NewDriver(eng, cfg.speedup)

	// Peer protocol server: remote domains coordinate against our manager.
	peerSrv := proto.NewServer(mgr, driver, logger)
	peerAddr, err := peerSrv.Listen(cfg.listen)
	if err != nil {
		return fmt.Errorf("peer listen: %w", err)
	}
	defer peerSrv.Close()
	logger.Printf("peer protocol on %s", peerAddr)

	// Outbound peers: resilient links (lazy dial, backoff, circuit breaker)
	// so daemons can start in any order and survive peer outages without
	// stalling the scheduler. Iterate in sorted order so jitter seeds — and
	// therefore redial schedules — are reproducible across restarts.
	peerNames := make([]string, 0, len(cfg.peers))
	for pname := range cfg.peers {
		peerNames = append(peerNames, pname)
	}
	sort.Strings(peerNames)
	var links []*peerlink.Link
	for _, pname := range peerNames {
		seed := fnv.New64a()
		fmt.Fprintf(seed, "%s->%s", cfg.name, pname)
		l := peerlink.New(peerlink.Config{
			Name:          pname,
			Addr:          cfg.peers[pname],
			DialTimeout:   cfg.dialTO,
			CallTimeout:   cfg.timeout,
			FailThreshold: cfg.brkFails,
			Cooldown:      cfg.brkCool,
			BackoffBase:   cfg.backoffLo,
			BackoffMax:    cfg.backoffHi,
			Seed:          seed.Sum64(),
			Logger:        logger,
			OnStateChange: func(peer string, from, to peerlink.State, cause error) {
				if elog == nil {
					return
				}
				msg := ""
				if cause != nil {
					msg = cause.Error()
				}
				// The hook fires inside peer calls, which the manager makes
				// under the driver lock — eng.Now() is safe here, while
				// driver.VirtualNow() would deadlock on the same lock.
				elog.PeerTransition(eng.Now(), cfg.name, peer, from.String(), to.String(), msg)
			},
		})
		links = append(links, l)
		defer l.Close()
		mgr.AddPeer(pname, l)
	}

	// Admin interface.
	adminSrv := live.NewAdminServer(mgr, driver, logger)
	adminAddr, err := adminSrv.Listen(cfg.admin)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	defer adminSrv.Close()
	logger.Printf("admin interface on %s", adminAddr)
	logger.Printf("domain %s: %d nodes, scheme=%s, policy=%s, speedup=%.0fx",
		cfg.name, cfg.nodes, sch, pol.Name(), cfg.speedup)

	if cfg.statusAddr != "" {
		statusSrv = live.NewStatusServer(mgr, driver, logger)
		statusSrv.WatchPeers(links...)
		if recInfo != nil {
			statusSrv.SetRecovery(*recInfo)
		}
		if store != nil {
			// Journal durability counters ride the same /metrics scrape as
			// the manager and peer-link series.
			statusSrv.WatchJournal(store.Stats)
		}
		sa, err := statusSrv.Listen(cfg.statusAddr)
		if err != nil {
			return fmt.Errorf("status listen: %w", err)
		}
		defer statusSrv.Close()
		logger.Printf("status page on http://%s/ (metrics on /metrics)", sa)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A recovered daemon reconciles its restored holds with every peer: the
	// crash may have orphaned pairs on either side. Runs beside the driver
	// because each exchange is a peer RPC that must be able to retry while
	// the scheduler keeps serving.
	if recInfo != nil && len(links) > 0 {
		//simlint:allow R4 reconcilePeers only touches the manager inside driver.Do closures, which serialize with the scheduler exactly like the proto server's inbound calls
		go reconcilePeers(ctx, driver, mgr, links, elog, statusSrv, *recInfo, logger)
	}

	driver.Run(ctx)
	logger.Print("shutting down")
	drain(driver, mgr, peerSrv, links, store, elog, logger)
	for _, l := range links {
		s := l.Snapshot()
		logger.Printf("peer %s: state=%s calls=%d ok=%d remote=%d transport=%d fastfail=%d retries=%d dials=%d trips=%d",
			s.Name, s.State, s.Calls, s.Successes, s.RemoteErrors, s.TransportErrors,
			s.FastFails, s.Retries, s.Dials, s.Trips)
	}
	return nil
}

// openEventLog opens path for appending, healing a torn final line first: a
// daemon killed mid-write leaves a partial JSON line, and appending new
// records straight onto it would corrupt the first post-restart record too.
// A newline boundary confines the damage to the torn line itself, which
// eventlog.Read skips.
func openEventLog(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if n := st.Size(); n > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, n-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// recoverFromJournal rebuilds the manager from what the store's Open pass
// found: replay the snapshot + WAL tail into final job states, re-install
// them, check the recovery invariants, re-emit the restored lifecycle into
// the event log (whose buffered tail died with the crash), and compact the
// journal to a fresh baseline so the next boot starts from one snapshot.
// Returns nil when there was nothing to recover (fresh start or no journal).
func recoverFromJournal(store *journal.Store, mgr *resmgr.Manager, elog *eventlog.Log, logger *log.Logger) (*live.RecoveryInfo, error) {
	if store == nil {
		return nil, nil
	}
	snap, entries := store.Recovered()
	if snap == nil && len(entries) == 0 {
		return nil, nil
	}
	if torn := store.Torn(); torn != nil {
		logger.Printf("journal: %v", torn)
	}
	st, err := journal.Replay(snap, entries)
	if err != nil {
		return nil, err
	}
	stats, err := journal.Restore(mgr, st)
	if err != nil {
		return nil, err
	}
	for _, v := range invariant.VerifyRecovery(mgr, st.Jobs) {
		logger.Printf("RECOVERY INVARIANT VIOLATION: %s", v)
	}
	detail := fmt.Sprintf("recovered at t=%d: snapshot seq %d + %d entries, %d jobs (%s)",
		st.T, st.SnapshotSeq, st.Entries, stats.Total(), stats)
	logger.Print(detail)
	if elog != nil {
		journal.ReemitLifecycle(elog.Observer(mgr.Name()), st.Jobs)
		elog.Recovery(st.T, mgr.Name(), detail)
	}
	// Fold the recovered state into one fresh snapshot so the next restart
	// replays from here, not from the whole pre-crash history.
	if err := store.Compact(journal.ManagerSnapshot(mgr)); err != nil {
		return nil, err
	}
	info := &live.RecoveryInfo{
		At:       st.T,
		Snapshot: st.SnapshotSeq,
		Entries:  st.Entries,
		Restored: stats.Total(),
	}
	if torn := store.Torn(); torn != nil {
		info.Torn = torn.Error()
	}
	return info, nil
}

// reconcilePeers drives the caller side of the post-restart mate
// reconciliation handshake against every peer, retrying per peer until the
// exchange succeeds or the daemon stops. Each outcome is logged, journaled
// as a recovery milestone, and published to the status page.
func reconcilePeers(ctx context.Context, driver *live.Driver, mgr *resmgr.Manager,
	links []*peerlink.Link, elog *eventlog.Log, statusSrv *live.StatusServer,
	base live.RecoveryInfo, logger *log.Logger) {
	var done []string
	for _, l := range links {
		for {
			var rep resmgr.ReconcileReport
			var err error
			driver.Do(func() { rep, err = mgr.ReconcileWith(l.PeerName(), l) })
			if err == nil {
				detail := fmt.Sprintf("reconciled with %s: sent=%d co_starts=%d adopted=%d released=%d kept=%d",
					rep.Peer, rep.Sent, rep.CoStarts, rep.Adopted, rep.Released, rep.Kept)
				logger.Print(detail)
				if elog != nil {
					elog.Recovery(driver.VirtualNow(), mgr.Name(), detail)
				}
				done = append(done, detail)
				if statusSrv != nil {
					info := base
					info.Reconcile = strings.Join(done, "; ")
					info.Reconciled = len(done)
					statusSrv.SetRecovery(info)
				}
				break
			}
			logger.Printf("reconcile with %s: %v (retrying in %v)", l.PeerName(), err, reconcileRetry)
			select {
			case <-ctx.Done():
				return
			case <-time.After(reconcileRetry):
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
//
// The event log flushes via its deferred Flush after this returns.
func drain(driver *live.Driver, mgr *resmgr.Manager, peerSrv *proto.Server,
	links []*peerlink.Link, store *journal.Store, elog *eventlog.Log, logger *log.Logger) {
	peerSrv.Close()
	var views map[string][]cosched.MateView
	driver.Do(func() { views = mgr.DrainViews() })
	for _, l := range links {
		vs, ok := views[l.PeerName()]
		if !ok {
			continue
		}
		if _, err := l.ReconcileMates(mgr.Name(), vs); err != nil {
			logger.Printf("drain: notify %s: %v", l.PeerName(), err)
			continue
		}
		logger.Printf("drain: notified %s about %d in-flight pair view(s)", l.PeerName(), len(vs))
	}
	if store != nil {
		if err := store.Close(); err != nil {
			logger.Printf("drain: journal close: %v", err)
		}
	}
	if elog != nil {
		if err := elog.Flush(); err != nil {
			logger.Printf("drain: event log flush: %v", err)
		}
	}
}
