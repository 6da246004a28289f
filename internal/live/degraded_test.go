package live

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/faultplan"
	"cosched/internal/journal"
	"cosched/internal/obs"
)

// TestDegradedModeMetricsExported drives a journal store into poisoning
// through an injected fsync fault and checks the whole degradation surface:
// the degraded gauge flips 0→1, the fsync-failure and campaign-fault
// counters land on /metrics with exact values (pinned by a scrape →
// authoritative-read → scrape sandwich where the source can move), the
// status JSON carries the degraded reason, and the HTML page shows the
// banner.
func TestDegradedModeMetricsExported(t *testing.T) {
	a := startTestDomain(t, "a", 16, cosched.Hold, 2000)

	plan := &faultplan.Plan{Seed: 9, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindFsyncEIO, At: 2},
	}}
	ffs := faultplan.NewFaultFS(plan, nil)
	store, err := journal.Open(t.TempDir(), journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ss := NewStatusServer(a.mgr, a.driver, nil)
	ss.WatchJournal(store.Stats)
	addr, err := ss.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	scrape := func() *obs.Scrape {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		s, err := obs.Parse(body)
		if err != nil {
			t.Fatalf("metrics exposition does not parse: %v\n%s", err, body)
		}
		return s
	}

	// Healthy scrape: degraded gauge present and 0, no fsync failures yet.
	s0 := scrape()
	if v, ok := s0.Value(obs.MetricJournalDegraded, "domain", "a"); !ok || v != 0 {
		t.Fatalf("%s = %g,%v before any fault, want 0", obs.MetricJournalDegraded, v, ok)
	}
	if v, ok := s0.Value(obs.MetricFsyncFailures, "domain", "a"); !ok || v != 0 {
		t.Fatalf("%s = %g,%v before any fault, want 0", obs.MetricFsyncFailures, v, ok)
	}

	// Inject: append until the scheduled fsync EIO fires and poisons the
	// store, then degrade exactly as the daemon's controller does.
	for i := 0; i < 8 && store.Poisoned() == nil; i++ {
		store.Append(&journal.Entry{Op: journal.OpHold, Job: 1}) //nolint — failure is the point
	}
	if store.Poisoned() == nil {
		t.Fatal("store not poisoned by the scheduled fsync fault")
	}
	a.driver.Do(func() { a.mgr.SetHoldBudget(0) })
	ss.SetDegraded("journal abandoned after storage fault: injected fsync EIO")

	// Sandwich: the store keeps its own counters, so pin every exported
	// series between two authoritative Stats() reads around the scrape.
	before := store.Stats()
	mid := scrape()
	after := store.Stats()
	for _, c := range []struct {
		metric string
		lo, hi uint64
	}{
		{"cosched_journal_appends_total", before.Appends, after.Appends},
		{"cosched_journal_fsyncs_total", before.Fsyncs, after.Fsyncs},
		{obs.MetricFsyncFailures, before.FsyncFailures, after.FsyncFailures},
	} {
		v, ok := mid.Value(c.metric, "domain", "a")
		if !ok {
			t.Fatalf("%s missing from /metrics after degradation", c.metric)
		}
		if v < float64(c.lo) || v > float64(c.hi) {
			t.Fatalf("%s = %g outside Stats sandwich [%d, %d]", c.metric, v, c.lo, c.hi)
		}
	}
	if v, _ := mid.Value(obs.MetricFsyncFailures, "domain", "a"); v != 1 {
		t.Fatalf("%s = %g after one injected fsync fault, want 1", obs.MetricFsyncFailures, v)
	}
	if v, _ := mid.Value(obs.MetricJournalDegraded, "domain", "a"); v != 1 {
		t.Fatalf("%s = %g after degradation, want 1", obs.MetricJournalDegraded, v)
	}
	if v, _ := mid.Value("cosched_journal_poisoned", "domain", "a"); v != 1 {
		t.Fatalf("cosched_journal_poisoned = %g after poisoning, want 1", v)
	}
	if v, ok := mid.Value(obs.MetricHoldsRefused, "domain", "a"); !ok || v != 0 {
		t.Fatalf("%s = %g,%v with no refused holds yet, want 0", obs.MetricHoldsRefused, v, ok)
	}

	// The JSON snapshot and the HTML page surface the same degradation.
	resp, err := http.Get("http://" + addr.String() + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatusSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.Degraded, "storage fault") {
		t.Fatalf("status.json degraded = %q, want the degradation reason", snap.Degraded)
	}
	page, err := http.Get("http://" + addr.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	html, err := io.ReadAll(page.Body)
	page.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "DEGRADED") {
		t.Fatal("status page does not show the DEGRADED banner")
	}
}
