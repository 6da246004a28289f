package live

import (
	"encoding/json"
	"html/template"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/obs"
	"cosched/internal/peerlink"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// statusReadHeaderTimeout bounds how long a status connection may dawdle
// over its request headers. Without it a slow-loris client (or a wedged
// monitoring agent) pins a goroutine + connection per request forever —
// the same class of hang the per-call deadlines of proto.Client and
// AdminClient rule out on protocol conns.
const statusReadHeaderTimeout = 10 * time.Second

// StatusSnapshot is the daemon state served by the status endpoint.
type StatusSnapshot struct {
	Domain     string         `json:"domain"`
	VirtualNow sim.Time       `json:"virtual_now"`
	Nodes      int            `json:"nodes"`
	Free       int            `json:"free"`
	Held       int            `json:"held"`
	Running    int            `json:"running_nodes"`
	Queued     int            `json:"queued_jobs"`
	Holding    int            `json:"holding_jobs"`
	Completed  int            `json:"completed_jobs"`
	Jobs       []StatusJobRow `json:"jobs"`
	// Peers reports the health of each watched peer link (breaker state,
	// call and failure counters). Empty when the daemon has no peers.
	Peers []peerlink.Snapshot `json:"peers,omitempty"`
	// Recovery describes the most recent crash recovery, if this daemon
	// booted from a journal. Absent on a fresh start.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// Degraded is non-empty while the daemon runs journal-less after a
	// storage fault: the reason the journal was abandoned plus the hold
	// budget now in force. Absent in healthy operation.
	Degraded string `json:"degraded,omitempty"`
}

// RecoveryInfo summarizes a daemon's boot-time recovery for the status
// page: what the journal yielded and how mate reconciliation went.
type RecoveryInfo struct {
	At        sim.Time `json:"at"`                  // virtual time recovery completed
	Snapshot  uint64   `json:"snapshot_seq"`        // snapshot sequence loaded (0 = none)
	Entries   int      `json:"entries"`             // WAL entries replayed on top
	Restored  int      `json:"restored_jobs"`       // jobs re-installed
	Torn      string   `json:"torn,omitempty"`      // truncated-tail description, if any
	Reconcile string   `json:"reconcile,omitempty"` // latest per-peer reconciliation summary
	// Reconciled counts peers whose post-restart mate reconciliation
	// completed; /metrics exports it as a gauge so a fleet dashboard can
	// alert on a daemon stuck mid-reconciliation.
	Reconciled int `json:"reconciled_peers,omitempty"`
}

// StatusJobRow is one non-terminal job in the snapshot.
type StatusJobRow struct {
	ID     job.ID   `json:"id"`
	Name   string   `json:"name,omitempty"`
	State  string   `json:"state"`
	Nodes  int      `json:"nodes"`
	Submit sim.Time `json:"submit"`
	Mates  int      `json:"mates"`
	Yields int      `json:"yields"`
}

// StatusServer serves a human-readable status page ("/"), a JSON
// snapshot ("/status.json"), and a Prometheus text exposition
// ("/metrics") for one live daemon.
type StatusServer struct {
	mgr    *resmgr.Manager
	driver *Driver
	logger *log.Logger
	links  []*peerlink.Link
	srv    *http.Server
	reg    *obs.Registry

	recMu    sync.Mutex
	recovery *RecoveryInfo
	degraded string
}

// SetRecovery publishes (or updates, as reconciliation progresses) the
// daemon's recovery summary. Safe to call from any goroutine.
func (s *StatusServer) SetRecovery(info RecoveryInfo) {
	s.recMu.Lock()
	s.recovery = &info
	s.recMu.Unlock()
}

// SetDegraded publishes the daemon's degraded-mode banner: the status
// page shows it loudly and /metrics flips cosched_journal_degraded to 1.
// Safe to call from any goroutine.
func (s *StatusServer) SetDegraded(reason string) {
	s.recMu.Lock()
	s.degraded = reason
	s.recMu.Unlock()
}

// NewStatusServer wraps a manager and its driver. logger receives serve
// errors; nil discards them.
func NewStatusServer(mgr *resmgr.Manager, driver *Driver, logger *log.Logger) *StatusServer {
	s := &StatusServer{mgr: mgr, driver: driver, logger: logger, reg: obs.New()}
	s.reg.Collect(s.collectMetrics)
	return s
}

// WatchPeers registers peer links whose health snapshots are included in
// every status snapshot. Call before Listen.
func (s *StatusServer) WatchPeers(links ...*peerlink.Link) {
	s.links = append(s.links, links...)
}

// WatchJournal exports the journal durability series on /metrics from a
// stats callback (normally journal.Store.Stats). The callback takes only
// the store's own lock, so a stalled disk can slow a scrape but never
// deadlock it against the driver. Call before Listen.
func (s *StatusServer) WatchJournal(stats func() journal.Stats) {
	d := s.mgr.Name()
	s.reg.Collect(func(e *obs.Emitter) {
		st := stats()
		e.Counter("cosched_journal_appends_total", "WAL entries appended since boot", float64(st.Appends), "domain", d)
		e.Counter("cosched_journal_fsyncs_total", "WAL fsyncs issued since boot", float64(st.Fsyncs), "domain", d)
		e.Counter("cosched_journal_compactions_total", "compacting snapshots taken since boot", float64(st.Compacts), "domain", d)
		e.Gauge("cosched_journal_entries_pending_compact", "WAL entries appended since the last compact", float64(st.Pending), "domain", d)
		e.Gauge("cosched_journal_seq", "last assigned journal sequence number", float64(st.Seq), "domain", d)
		e.Counter(obs.MetricFsyncFailures, "journal fsync failures; any failure poisons the store permanently", float64(st.FsyncFailures), "domain", d)
		poisoned := 0.0
		if st.Poisoned {
			poisoned = 1
		}
		e.Gauge("cosched_journal_poisoned", "1 once the journal store has latched a storage fault", poisoned, "domain", d)
	})
}

// snapshot collects daemon state under the driver lock.
func (s *StatusServer) snapshot() StatusSnapshot {
	var snap StatusSnapshot
	s.driver.Do(func() {
		pool := s.mgr.Pool()
		snap = StatusSnapshot{
			Domain:     s.mgr.Name(),
			VirtualNow: s.driver.virtualNowLocked(),
			Nodes:      pool.Total(),
			Free:       pool.Free(),
			Held:       pool.Held(),
			Running:    pool.Running(),
			Queued:     s.mgr.QueueLength(),
			Holding:    s.mgr.HoldingCount(),
			Completed:  s.mgr.CompletedCount(),
		}
		for _, j := range s.mgr.Jobs() {
			if j.State == job.Completed {
				continue
			}
			snap.Jobs = append(snap.Jobs, StatusJobRow{
				ID: j.ID, Name: j.Name, State: j.State.String(),
				Nodes: j.Nodes, Submit: j.SubmitTime,
				Mates: len(j.Mates), Yields: j.YieldCount,
			})
		}
	})
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].ID < snap.Jobs[b].ID })
	// Link snapshots take only the link's own lock — outside driver.Do, so
	// a wedged peer call can never block the status page.
	for _, l := range s.links {
		snap.Peers = append(snap.Peers, l.Snapshot())
	}
	s.recMu.Lock()
	if s.recovery != nil {
		info := *s.recovery
		snap.Recovery = &info
	}
	snap.Degraded = s.degraded
	s.recMu.Unlock()
	return snap
}

// collectMetrics emits the daemon's operational state as Prometheus
// samples on every /metrics scrape. It reuses snapshot(), so the manager
// reads happen under the driver lock and peer counters come from each
// link's own lock — the same consistency the status page gets. Metric
// names and label sets are part of the repo's observability contract; the
// table lives in ARCHITECTURE.md.
func (s *StatusServer) collectMetrics(e *obs.Emitter) {
	snap := s.snapshot()
	d := snap.Domain
	e.Gauge("cosched_virtual_time_seconds", "virtual simulation time", float64(snap.VirtualNow), "domain", d)
	e.Gauge("cosched_nodes_total", "pool capacity in nodes", float64(snap.Nodes), "domain", d)
	e.Gauge("cosched_nodes_free", "free nodes", float64(snap.Free), "domain", d)
	e.Gauge("cosched_nodes_held", "nodes held for coscheduling mates", float64(snap.Held), "domain", d)
	e.Gauge("cosched_nodes_running", "nodes running jobs", float64(snap.Running), "domain", d)
	e.Gauge("cosched_jobs_queued", "jobs waiting in the queue", float64(snap.Queued), "domain", d)
	e.Gauge("cosched_jobs_holding", "jobs holding nodes for a mate", float64(snap.Holding), "domain", d)
	e.Counter("cosched_jobs_completed_total", "jobs completed since boot", float64(snap.Completed), "domain", d)

	// Counters the snapshot does not carry: cheap manager reads, taken
	// under the driver lock like everything else.
	var cancelled, iterations, refused float64
	s.driver.Do(func() {
		cancelled = float64(s.mgr.CancelledCount())
		iterations = float64(s.mgr.Iterations())
		refused = float64(s.mgr.HoldsRefused())
	})
	e.Counter("cosched_jobs_cancelled_total", "jobs cancelled since boot", cancelled, "domain", d)
	e.Counter("cosched_scheduler_iterations_total", "scheduler Iterate passes since boot", iterations, "domain", d)
	e.Counter(obs.MetricHoldsRefused, "Hold decisions downgraded to Yield by the degraded-mode hold budget", refused, "domain", d)

	degraded := 0.0
	if snap.Degraded != "" {
		degraded = 1
	}
	e.Gauge(obs.MetricJournalDegraded, "1 while the daemon runs journal-less after a storage fault", degraded, "domain", d)

	for _, p := range snap.Peers {
		connected := 0.0
		if p.Connected {
			connected = 1
		}
		e.Gauge("cosched_peer_connected", "1 when the peer link has an established connection", connected, "domain", d, "peer", p.Name)
		e.Gauge("cosched_peer_consecutive_failures", "consecutive transport failures feeding the breaker", float64(p.ConsecutiveFailures), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_calls_total", "peer calls attempted", float64(p.Calls), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_successes_total", "peer calls that succeeded", float64(p.Successes), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_remote_errors_total", "peer calls rejected by the remote daemon", float64(p.RemoteErrors), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_transport_errors_total", "peer calls lost to transport failures", float64(p.TransportErrors), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_fast_fails_total", "peer calls rejected by an open breaker", float64(p.FastFails), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_retries_total", "peer calls retried after a provably-unsent failure", float64(p.Retries), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_dials_total", "connection dials", float64(p.Dials), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_dial_errors_total", "failed connection dials", float64(p.DialErrors), "domain", d, "peer", p.Name)
		e.Counter("cosched_peer_breaker_trips_total", "circuit-breaker open transitions", float64(p.Trips), "domain", d, "peer", p.Name)
	}

	if snap.Recovery != nil {
		r := snap.Recovery
		e.Gauge("cosched_recovery_completed_at_seconds", "virtual time the last journal recovery completed", float64(r.At), "domain", d)
		e.Gauge("cosched_recovery_snapshot_seq", "journal snapshot sequence recovery loaded", float64(r.Snapshot), "domain", d)
		e.Gauge("cosched_recovery_entries_replayed", "WAL entries replayed on top of the snapshot", float64(r.Entries), "domain", d)
		e.Gauge("cosched_recovery_jobs_restored", "jobs re-installed by recovery", float64(r.Restored), "domain", d)
		e.Gauge("cosched_recovery_peers_reconciled", "peers whose mate state was reconciled after restart", float64(r.Reconciled), "domain", d)
	}
}

var statusTemplate = template.Must(template.New("status").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>coschedd {{.Domain}}</title>
<style>
body{font-family:system-ui,sans-serif;margin:2rem;color:#0b0b0b;background:#fcfcfb}
table{border-collapse:collapse;margin-top:1rem}
td,th{border:1px solid #e4e3df;padding:.3rem .7rem;text-align:left}
th{background:#f3f2ef}.k{color:#52514e}
</style></head><body>
<h1>coschedd — domain {{.Domain}}</h1>
{{if .Degraded}}<p style="background:#b00020;color:#fff;padding:.5rem .8rem;font-weight:600">
DEGRADED — {{.Degraded}}</p>{{end}}
<p class="k">virtual t={{.VirtualNow}}s · nodes {{.Free}}/{{.Nodes}} free,
{{.Running}} running, {{.Held}} held · {{.Queued}} queued / {{.Holding}} holding /
{{.Completed}} completed jobs · <a href="/status.json">JSON</a></p>
<table><tr><th>job</th><th>name</th><th>state</th><th>nodes</th><th>submit</th><th>mates</th><th>yields</th></tr>
{{range .Jobs}}<tr><td>{{.ID}}</td><td>{{.Name}}</td><td>{{.State}}</td>
<td>{{.Nodes}}</td><td>{{.Submit}}</td><td>{{.Mates}}</td><td>{{.Yields}}</td></tr>
{{else}}<tr><td colspan="7" class="k">no active jobs</td></tr>{{end}}
</table>
{{with .Recovery}}<h2>recovery</h2>
<table><tr><th>recovered at</th><th>snapshot seq</th><th>entries replayed</th>
<th>jobs restored</th><th>torn tail</th><th>reconciliation</th></tr>
<tr><td>t={{.At}}s</td><td>{{.Snapshot}}</td><td>{{.Entries}}</td>
<td>{{.Restored}}</td><td class="k">{{if .Torn}}{{.Torn}}{{else}}clean{{end}}</td>
<td class="k">{{if .Reconcile}}{{.Reconcile}}{{else}}pending{{end}}</td></tr>
</table>{{end}}
{{if .Peers}}<h2>peer links</h2>
<table><tr><th>peer</th><th>state</th><th>connected</th><th>calls</th><th>ok</th>
<th>remote err</th><th>transport err</th><th>fast fail</th><th>retries</th>
<th>trips</th><th>last error</th></tr>
{{range .Peers}}<tr><td>{{.Name}}</td><td>{{.State}}</td><td>{{.Connected}}</td>
<td>{{.Calls}}</td><td>{{.Successes}}</td><td>{{.RemoteErrors}}</td>
<td>{{.TransportErrors}}</td><td>{{.FastFails}}</td><td>{{.Retries}}</td>
<td>{{.Trips}}</td><td class="k">{{.LastError}}</td></tr>{{end}}
</table>{{end}}
</body></html>`))

// Listen serves the status page on addr and returns the bound address.
func (s *StatusServer) Listen(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusTemplate.Execute(w, s.snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/metrics", s.reg.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: statusReadHeaderTimeout}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed && s.logger != nil {
			s.logger.Printf("status server: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops the HTTP server.
func (s *StatusServer) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
