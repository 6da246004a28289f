package live

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cosched/internal/config"
	"cosched/internal/faultplan"
	"cosched/internal/job"
	"cosched/internal/obs"
)

// TestDegradedModeMetricsExported runs the daemon's storage-fault
// degradation controller as it runs in coschedd: a journal on a fault FS
// whose third fsync fails, admin submissions until the store poisons. The
// controller must flip every surface at once — the degraded gauge 0→1, the
// poisoned series, the reason in /status.json and the HTML banner — while
// /metrics exports the store's exact append, fsync and fsync-failure counts
// and its compaction gauges (WAL bytes since the snapshot, snapshot size);
// it must detach the recorder, so the append counter stops, and clamp
// holds to -degraded-max-holds 0, so a pair that would hold yields and
// counts one refused hold.
func TestDegradedModeMetricsExported(t *testing.T) {
	clk := newStepClock()
	b := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "b", Nodes: 8, Scheme: "yield"}, Speedup: 1})
	// Fsync 0 is the snapshot a journal's first owner writes; the fault
	// fails the third WAL fsync after it.
	plan := &faultplan.Plan{Seed: 9, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindFsyncEIO, At: 3},
	}}
	a := startTestDomain(t, clk, Config{Domain: config.Domain{Name: "a", Nodes: 16, Scheme: "hold"}, Speedup: 1,
		Status: "127.0.0.1:0", JournalDir: t.TempDir(), fs: faultplan.NewFaultFS(plan, nil)})
	a.Connect("b", b.peerAddr)
	ca, err := DialAdmin(a.adminAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + a.statusAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	metric := func(name string) float64 {
		t.Helper()
		body := get("/metrics")
		s, err := obs.Parse(body)
		if err != nil {
			t.Fatalf("metrics exposition does not parse: %v\n%s", err, body)
		}
		v, ok := s.Value(name, "domain", "a")
		if !ok {
			t.Fatalf("%s missing from /metrics:\n%s", name, body)
		}
		return v
	}
	// Solo jobs that run for the whole test, so no completion triggers a
	// later scheduling pass.
	nextID := job.ID(100)
	submitSolo := func() {
		t.Helper()
		nextID++
		if err := ca.Submit(WireJob{ID: nextID, Nodes: 1, Runtime: 1e7, Walltime: 1e7}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if st, err := ca.Status(nextID); err != nil || !st.Started {
			t.Fatalf("job %d one second after its submission: %+v, %v; want started", nextID, st, err)
		}
	}

	if v := metric(obs.MetricJournalDegraded); v != 0 {
		t.Fatalf("%s = %g before any fault, want 0", obs.MetricJournalDegraded, v)
	}
	if v := metric(obs.MetricFsyncFailures); v != 0 {
		t.Fatalf("%s = %g before any fault, want 0", obs.MetricFsyncFailures, v)
	}
	for i := 0; i < 8 && a.store.Poisoned() == nil; i++ {
		submitSolo()
	}
	if a.store.Poisoned() == nil {
		t.Fatal("store not poisoned by the scheduled fsync fault")
	}

	// A poisoned store never counts again, so its Stats are the exact values
	// /metrics must export from here on. The three journal counters differ
	// (3 appends, 2 fsyncs, 1 failure), so a swapped series cannot pass.
	st := a.store.Stats()
	if st.FsyncFailures != 1 || st.Appends == st.Fsyncs || st.Fsyncs == st.FsyncFailures || st.Appends == st.FsyncFailures {
		t.Fatalf("store stats %+v: want one fsync failure and three distinct journal counters", st)
	}
	// The compaction gauges: the first owner's snapshot and the WAL bytes
	// appended since it, of different sizes so that swapped series fail.
	if st.SnapshotBytes <= 0 || st.PendingBytes <= 0 || st.PendingBytes == st.SnapshotBytes {
		t.Fatalf("store stats %+v: want a snapshot and WAL bytes since it, of different sizes", st)
	}
	checks := map[string]float64{
		obs.MetricJournalDegraded: 1, "cosched_journal_poisoned": 1,
		obs.MetricFsyncFailures: float64(st.FsyncFailures), obs.MetricHoldsRefused: 0,
		"cosched_journal_appends_total":         float64(st.Appends),
		"cosched_journal_fsyncs_total":          float64(st.Fsyncs),
		"cosched_journal_bytes_pending_compact": float64(st.PendingBytes),
		"cosched_journal_snapshot_bytes":        float64(st.SnapshotBytes),
	}
	for name, want := range checks {
		if v := metric(name); v != want {
			t.Fatalf("%s = %g after the store poisoned, want %g", name, v, want)
		}
	}
	var snap StatusSnapshot
	if err := json.Unmarshal(get("/status.json"), &snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.Degraded, "storage fault") {
		t.Fatalf("status.json degraded = %q, want the degradation reason", snap.Degraded)
	}
	if !strings.Contains(string(get("/")), "DEGRADED") {
		t.Fatal("status page does not show the DEGRADED banner")
	}

	// Detached: transitions no longer reach the store.
	submitSolo()
	if v := metric("cosched_journal_appends_total"); v != float64(st.Appends) {
		t.Fatalf("cosched_journal_appends_total moved %d -> %g after degradation: recorder still attached", st.Appends, v)
	}

	// Clamped: a's half of a pair whose mate b only expects would hold; the
	// budget of 0 turns the hold into a yield.
	cb, err := DialAdmin(b.adminAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if err := cb.Expect(WireJob{ID: 7, Nodes: 2, Runtime: 600, Walltime: 600, Mates: []job.MateRef{{Domain: "a", Job: 7}}}); err != nil {
		t.Fatal(err)
	}
	if err := ca.Submit(WireJob{ID: 7, Nodes: 4, Runtime: 600, Walltime: 600, Mates: []job.MateRef{{Domain: "b", Job: 7}}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if j := jobOf(a, 7); j.State != job.Queued || j.YieldCount != 1 {
		t.Fatalf("job 7 is %s after %d yield(s) on a degraded daemon with -degraded-max-holds 0, want queued after one", j.State, j.YieldCount)
	}
	if v := metric(obs.MetricHoldsRefused); v != 1 {
		t.Fatalf("%s = %g after one refused hold, want 1", obs.MetricHoldsRefused, v)
	}
}
