package eventlog

import (
	"bytes"
	"strings"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// runLogged simulates a small paired workload with event logging and
// returns the raw log bytes.
func runLogged(t *testing.T, schemeA, schemeB cosched.Scheme) []byte {
	t.Helper()
	var buf bytes.Buffer
	log := New(&buf)

	spec := workload.Spec{
		Name: "a", Jobs: 50, Span: 4 * sim.Hour,
		Sizes:     []workload.SizeClass{{Nodes: 8, Weight: 0.7}, {Nodes: 16, Weight: 0.3}},
		RuntimeMu: 6.0, RuntimeSigma: 0.8,
		MinRuntime: sim.Minute, MaxRuntime: sim.Hour,
		WallFactorMin: 1.2, WallFactorMax: 2.0, Seed: 5,
	}
	a, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 6
	spec.Sizes = []workload.SizeClass{{Nodes: 2, Weight: 1}}
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.PairNearest(workload.NewRNG(7), a, b, "A", "B", 15, sim.Hour)

	s, err := coupled.New(coupled.Options{Domains: []coupled.DomainConfig{
		{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(schemeA),
			Trace: a, Observer: log.Observer("A")},
		{Name: "B", Nodes: 16, Backfilling: true, Cosched: cosched.DefaultConfig(schemeB),
			Trace: b, Observer: log.Observer("B")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.StuckJobs != 0 {
		t.Fatalf("stuck = %d", res.StuckJobs)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if log.Records() == 0 {
		t.Fatal("no records logged")
	}
	return buf.Bytes()
}

// readClean parses a log the test wrote itself, so no line may be skipped.
func readClean(t *testing.T, raw []byte) []Record {
	t.Helper()
	recs, skipped, err := Read(bytes.NewReader(raw))
	if err != nil || skipped != 0 {
		t.Fatalf("read log: skipped %d, err %v", skipped, err)
	}
	return recs
}

func TestLogRoundTripAndVerify(t *testing.T) {
	recs := readClean(t, runLogged(t, cosched.Hold, cosched.Yield))
	stats := Summarize(recs)
	if stats.Submits != 100 || stats.Starts != 100 || stats.Completes != 100 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Domains) != 2 {
		t.Fatalf("domains = %v", stats.Domains)
	}
	// The §V-B validation, from the log alone.
	if v := VerifyCoStarts(recs); len(v) != 0 {
		t.Fatalf("co-start violations from log: %v", v)
	}
}

func TestVerifyDetectsDivergentStarts(t *testing.T) {
	recs := []Record{
		{Time: 0, Domain: "A", Kind: KindSubmit, JobID: 1,
			Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Time: 0, Domain: "B", Kind: KindSubmit, JobID: 1,
			Mates: []job.MateRef{{Domain: "A", Job: 1}}},
		{Time: 100, Domain: "A", Kind: KindStart, JobID: 1},
		{Time: 250, Domain: "B", Kind: KindStart, JobID: 1},
	}
	v := VerifyCoStarts(recs)
	if len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
	if v[0].Reason != "start instants differ" || v[0].Start != 100 || v[0].MateAt != 250 {
		t.Fatalf("violation = %+v", v[0])
	}
	if !strings.Contains(v[0].String(), "start instants differ") {
		t.Fatal("String() missing reason")
	}
}

func TestVerifyDetectsLonelyStart(t *testing.T) {
	recs := []Record{
		{Time: 0, Domain: "A", Kind: KindSubmit, JobID: 1,
			Mates: []job.MateRef{{Domain: "B", Job: 9}}},
		{Time: 100, Domain: "A", Kind: KindStart, JobID: 1},
	}
	v := VerifyCoStarts(recs)
	if len(v) != 1 || v[0].Reason != "mate never started" || v[0].MateAt != -1 {
		t.Fatalf("violations = %v", v)
	}
}

func TestVerifyIgnoresUnstartedPairs(t *testing.T) {
	recs := []Record{
		{Time: 0, Domain: "A", Kind: KindSubmit, JobID: 1,
			Mates: []job.MateRef{{Domain: "B", Job: 1}}},
	}
	if v := VerifyCoStarts(recs); len(v) != 0 {
		t.Fatalf("violations = %v", v)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	recs, skipped, err := Read(strings.NewReader("{not json\n"))
	if err != nil || len(recs) != 0 || skipped != 1 {
		t.Fatalf("garbage: records %v, skipped %d, err %v; want none, 1, nil", recs, skipped, err)
	}
	// Blank lines are neither records nor damage.
	recs, skipped, err = Read(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 || skipped != 0 {
		t.Fatalf("blank log: %v %d %v", recs, skipped, err)
	}
}

func TestHoldAndYieldEventsLogged(t *testing.T) {
	recs := readClean(t, runLogged(t, cosched.Hold, cosched.Hold))
	stats := Summarize(recs)
	if stats.Holds == 0 {
		t.Fatal("hold-hold run logged no hold events")
	}
}

func TestPeerTransitionRecords(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf)
	log.PeerTransition(100, "A", "B", "closed", "open", "dial tcp: connection refused")
	log.PeerTransition(200, "A", "B", "open", "half-open", "")
	log.PeerTransition(200, "A", "B", "half-open", "closed", "")
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := readClean(t, buf.Bytes())
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	first := recs[0]
	if first.Kind != KindPeer || first.Domain != "A" || first.Peer != "B" || first.Time != 100 {
		t.Fatalf("record = %+v", first)
	}
	if first.Detail != "closed -> open (dial tcp: connection refused)" {
		t.Fatalf("detail = %q", first.Detail)
	}
	if recs[1].Detail != "open -> half-open" {
		t.Fatalf("causeless detail = %q", recs[1].Detail)
	}
	stats := Summarize(recs)
	if stats.PeerTransitions != 3 {
		t.Fatalf("peer transitions = %d, want 3", stats.PeerTransitions)
	}
	// Peer records never disturb co-start verification.
	if v := VerifyCoStarts(recs); len(v) != 0 {
		t.Fatalf("violations from peer-only log: %v", v)
	}
}

func TestRecoveryRecordsAndTolerantRead(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Recovery(100, "A", "replayed 42 entries, 3 jobs restored")
	l.Recovery(101, "A", "reconciled with B: co-starts=1")
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// A kill -9 mid-write leaves a torn trailing line.
	buf.WriteString(`{"t":102,"domain":"A","kind":"sta`)

	records, skipped, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(records) != 2 || records[0].Kind != KindRecovery || records[0].Detail == "" {
		t.Fatalf("records: %+v", records)
	}
	s := Summarize(records)
	if s.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", s.Recoveries)
	}
}

func TestVerifyCoStartsTolerantOfReemittedDuplicates(t *testing.T) {
	// After a restart the daemon re-emits restored lifecycle records; the
	// duplicates carry identical values and must not create violations.
	records := []Record{
		{Time: 0, Domain: "A", Kind: KindSubmit, JobID: 1, Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Time: 0, Domain: "B", Kind: KindSubmit, JobID: 1, Mates: []job.MateRef{{Domain: "A", Job: 1}}},
		{Time: 50, Domain: "A", Kind: KindStart, JobID: 1},
		{Time: 50, Domain: "B", Kind: KindStart, JobID: 1},
		// Restart of A: submit and start re-emitted with the same values.
		{Time: 60, Domain: "A", Kind: KindRecovery, Detail: "replayed 4 entries"},
		{Time: 0, Domain: "A", Kind: KindSubmit, JobID: 1, Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Time: 50, Domain: "A", Kind: KindStart, JobID: 1},
	}
	if v := VerifyCoStarts(records); len(v) != 0 {
		t.Fatalf("duplicates produced violations: %v", v)
	}
}
