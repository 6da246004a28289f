package live

import (
	"cmp"
	"encoding/json"
	"html/template"
	"net"
	"net/http"
	"slices"
	"time"

	"cosched/internal/job"
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
	Domain     string   `json:"domain"`
	VirtualNow sim.Time `json:"virtual_now"`
	// Counts carries the node and job counters under their /status.json
	// keys; the ones tagged "-" only /metrics exports.
	resmgr.Counts
	Jobs []StatusJobRow `json:"jobs"`
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

// StatusJobRow is one live job in the snapshot: queued, holding or
// running. Completed and cancelled jobs have no row, and neither has an
// expected job before its submission (admin status still answers for it).
type StatusJobRow struct {
	ID     job.ID   `json:"id"`
	Name   string   `json:"name,omitempty"`
	State  string   `json:"state"`
	Nodes  int      `json:"nodes"`
	Submit sim.Time `json:"submit"`
	Mates  int      `json:"mates"`
	Yields int      `json:"yields"`
}

// snapshot collects daemon state for the status page and /status.json
// (rows) or for /metrics (no rows). Everything the manager and the driver
// know is read in one driver.Do, so one reading never mixes two virtual
// instants; the rows, one per live job sorted by ID, are built in that Do
// from the manager's live sets. Nothing here walks the job history: a
// reading costs what the live state costs, however many jobs have ended.
func (d *Daemon) snapshot(rows bool) StatusSnapshot {
	var snap StatusSnapshot
	d.driver.Do(func() {
		snap = StatusSnapshot{
			Domain:     d.mgr.Name(),
			VirtualNow: d.driver.virtualNowLocked(),
			Counts:     d.mgr.Counts(),
		}
		if !rows {
			return
		}
		d.mgr.EachLive(func(j *job.Job) {
			snap.Jobs = append(snap.Jobs, StatusJobRow{
				ID: j.ID, Name: j.Name, State: j.State.String(),
				Nodes: j.Nodes, Submit: j.SubmitTime,
				Mates: len(j.Mates), Yields: j.YieldCount,
			})
		})
	})
	slices.SortFunc(snap.Jobs, func(a, b StatusJobRow) int { return cmp.Compare(a.ID, b.ID) })
	// Link snapshots take only the link's own lock — outside driver.Do, so
	// a wedged peer call can never block the status page.
	for _, l := range d.peerLinks() {
		snap.Peers = append(snap.Peers, l.Snapshot())
	}
	d.mu.Lock()
	if d.recovery != nil {
		info := *d.recovery
		snap.Recovery = &info
	}
	snap.Degraded = d.degraded
	d.mu.Unlock()
	return snap
}

// collectMetrics emits the daemon's operational state as Prometheus
// samples on every /metrics scrape, from one snapshot without job rows: the
// manager reads happen under the driver lock and peer counters come from
// each link's own lock — the same consistency the status page gets. Metric
// names and label sets are part of the repo's observability contract; the
// table lives in ARCHITECTURE.md.
func (d *Daemon) collectMetrics(e *obs.Emitter) {
	snap := d.snapshot(false)
	dom := snap.Domain
	e.Gauge("cosched_virtual_time_seconds", "virtual simulation time", float64(snap.VirtualNow), "domain", dom)
	e.Gauge("cosched_nodes_total", "pool capacity in nodes", float64(snap.Nodes), "domain", dom)
	e.Gauge("cosched_nodes_free", "free nodes", float64(snap.Free), "domain", dom)
	e.Gauge("cosched_nodes_held", "nodes held for coscheduling mates", float64(snap.Held), "domain", dom)
	e.Gauge("cosched_nodes_running", "nodes running jobs", float64(snap.Running), "domain", dom)
	e.Gauge("cosched_jobs_queued", "jobs waiting in the queue", float64(snap.Queued), "domain", dom)
	e.Gauge("cosched_jobs_holding", "jobs holding nodes for a mate", float64(snap.Holding), "domain", dom)
	e.Counter("cosched_jobs_completed_total", "jobs completed since boot", float64(snap.Completed), "domain", dom)
	e.Counter("cosched_jobs_cancelled_total", "jobs cancelled since boot", float64(snap.Cancelled), "domain", dom)
	e.Counter("cosched_scheduler_iterations_total", "scheduler Iterate passes since boot", float64(snap.Iterations), "domain", dom)
	e.Counter(obs.MetricHoldsRefused, "Hold decisions downgraded to Yield by the degraded-mode hold budget", float64(snap.HoldsRefused), "domain", dom)

	degraded := 0.0
	if snap.Degraded != "" {
		degraded = 1
	}
	e.Gauge(obs.MetricJournalDegraded, "1 while the daemon runs journal-less after a storage fault", degraded, "domain", dom)

	for _, p := range snap.Peers {
		connected := 0.0
		if p.Connected {
			connected = 1
		}
		e.Gauge("cosched_peer_connected", "1 when the peer link has an established connection", connected, "domain", dom, "peer", p.Name)
		e.Gauge("cosched_peer_consecutive_failures", "consecutive transport failures feeding the breaker", float64(p.ConsecutiveFailures), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_calls_total", "peer calls attempted", float64(p.Calls), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_successes_total", "peer calls that succeeded", float64(p.Successes), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_remote_errors_total", "peer calls rejected by the remote daemon", float64(p.RemoteErrors), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_transport_errors_total", "peer calls lost to transport failures", float64(p.TransportErrors), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_fast_fails_total", "peer calls rejected by an open breaker", float64(p.FastFails), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_retries_total", "peer calls retried after a provably-unsent failure", float64(p.Retries), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_dials_total", "connection dials", float64(p.Dials), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_dial_errors_total", "failed connection dials", float64(p.DialErrors), "domain", dom, "peer", p.Name)
		e.Counter("cosched_peer_breaker_trips_total", "circuit-breaker open transitions", float64(p.Trips), "domain", dom, "peer", p.Name)
	}

	if snap.Recovery != nil {
		r := snap.Recovery
		e.Gauge("cosched_recovery_completed_at_seconds", "virtual time the last journal recovery completed", float64(r.At), "domain", dom)
		e.Gauge("cosched_recovery_snapshot_seq", "journal snapshot sequence recovery loaded", float64(r.Snapshot), "domain", dom)
		e.Gauge("cosched_recovery_entries_replayed", "WAL entries replayed on top of the snapshot", float64(r.Entries), "domain", dom)
		e.Gauge("cosched_recovery_jobs_restored", "jobs re-installed by recovery", float64(r.Restored), "domain", dom)
		e.Gauge("cosched_recovery_peers_reconciled", "peers whose mate state was reconciled after restart", float64(r.Reconciled), "domain", dom)
	}

	if d.store == nil {
		return
	}
	// Store.Stats takes only the store's own lock: a stalled disk can slow
	// a scrape but never deadlock it against the driver.
	st := d.store.Stats()
	e.Counter("cosched_journal_appends_total", "WAL entries appended since boot", float64(st.Appends), "domain", dom)
	e.Counter("cosched_journal_fsyncs_total", "WAL fsyncs issued since boot", float64(st.Fsyncs), "domain", dom)
	e.Counter("cosched_journal_compactions_total", "compacting snapshots taken since boot", float64(st.Compacts), "domain", dom)
	e.Gauge("cosched_journal_entries_pending_compact", "WAL entries appended since the last compact", float64(st.Pending), "domain", dom)
	e.Gauge("cosched_journal_bytes_pending_compact", "WAL bytes appended since the last compact; a compact is due once this reaches the snapshot's size", float64(st.PendingBytes), "domain", dom)
	e.Gauge("cosched_journal_snapshot_bytes", "size of the last journal snapshot", float64(st.SnapshotBytes), "domain", dom)
	e.Gauge("cosched_journal_seq", "last assigned journal sequence number", float64(st.Seq), "domain", dom)
	e.Counter(obs.MetricFsyncFailures, "journal fsync failures; any failure poisons the store permanently", float64(st.FsyncFailures), "domain", dom)
	poisoned := 0.0
	if st.Poisoned {
		poisoned = 1
	}
	e.Gauge("cosched_journal_poisoned", "1 once the journal store has latched a storage fault", poisoned, "domain", dom)
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

// serveStatus serves the status page ("/"), a JSON snapshot
// ("/status.json") and a Prometheus text exposition ("/metrics") on addr.
// Serve errors go to the daemon logger.
func (d *Daemon) serveStatus(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusTemplate.Execute(w, d.snapshot(true)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/status.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.snapshot(true)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/metrics", obs.Handler(d.collectMetrics))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.statusAddr = ln.Addr().String()
	d.status = &http.Server{Handler: mux, ReadHeaderTimeout: statusReadHeaderTimeout}
	go func() {
		if err := d.status.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.logger.Printf("status server: %v", err)
		}
	}()
	return nil
}
