package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/experiments"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/sim"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailPercentile(tc.n, tailLadder); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(1000, []float64{99.9, 99, 95}); got != 99 {
		t.Errorf("with a p99.9 rung, 1000 samples report p%g, want p99", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},  // overlaps the first: counted once
		{Name: "child", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
	}
	lt := selfTimes(spans)
	// Covered: [10,50) and [90,100) = 50 of 100.
	if got := lt["parent"]; got.Count != 1 || got.Total != 100 || got.Self != 50 {
		t.Errorf("parent = %+v, want total 100 self 50", got)
	}
	// Children: 20 + 30 + 30 total; only the first has a child (6).
	if got := lt["child"]; got.Count != 3 || got.Total != 80 || got.Self != 74 {
		t.Errorf("child = %+v, want total 80 self 74", got)
	}
	if got := lt["grandchild"]; got.Total != 6 || got.Self != 6 {
		t.Errorf("grandchild = %+v, want total 6 self 6", got)
	}
}

func TestRecorderNestsAndInheritsUnit(t *testing.T) {
	r := newRecorder()
	endOuter := r.begin("outer", 7)
	endInner := r.begin("inner", -1)
	endInner()
	endSibling := r.begin("sibling", 9)
	endSibling()
	endOuter()
	endRoot := r.begin("root", -1)
	endRoot()
	got := r.since(0)
	want := []struct {
		name         string
		parent, unit int
	}{{"outer", -1, 7}, {"inner", 0, 7}, {"sibling", 0, 9}, {"root", -1, -1}}
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Parent != w.parent || got[i].Unit != w.unit || got[i].End < got[i].Start {
			t.Errorf("span %d = %+v, want %+v", i, got[i], w)
		}
	}
	if rebased := r.since(1); rebased[0].Parent != -1 || rebased[1].Parent != -1 {
		t.Errorf("since(1) kept parents before the mark: %+v", rebased)
	}
	var none *recorder
	none.begin("ignored", 0)() // a nil recorder records nothing and does not panic
}

// fakePeer records which method of the full coordination vocabulary was
// called, with what.
type fakePeer struct {
	calls []string
	at    sim.Time
	views int
}

func (f *fakePeer) PeerName() string { return "fake" }
func (f *fakePeer) GetMateJob(job.ID) (bool, error) {
	f.calls = append(f.calls, "GetMateJob")
	return true, nil
}
func (f *fakePeer) GetMateStatus(job.ID) (cosched.MateStatus, error) {
	f.calls = append(f.calls, "GetMateStatus")
	return cosched.StatusHolding, nil
}
func (f *fakePeer) CanStartMate(job.ID) (bool, error) {
	f.calls = append(f.calls, "CanStartMate")
	return true, nil
}
func (f *fakePeer) TryStartMate(job.ID) (bool, error) {
	f.calls = append(f.calls, "TryStartMate")
	return true, nil
}
func (f *fakePeer) StartMate(job.ID) error {
	f.calls = append(f.calls, "StartMate")
	return errors.New("refused")
}
func (f *fakePeer) TryStartMateAt(_ job.ID, at sim.Time) (bool, error) {
	f.calls, f.at = append(f.calls, "TryStartMateAt"), at
	return true, nil
}
func (f *fakePeer) StartMateAt(_ job.ID, at sim.Time) error {
	f.calls, f.at = append(f.calls, "StartMateAt"), at
	return nil
}
func (f *fakePeer) ReconcileMates(_ string, views []cosched.MateView) ([]cosched.MateView, error) {
	f.calls, f.views = append(f.calls, "ReconcileMates"), len(views)
	return views, nil
}

func TestPeerDecoratorForwardsWholeVocabulary(t *testing.T) {
	for _, rec := range []*recorder{nil, newRecorder()} {
		inner := &fakePeer{}
		p := &tracedPeer{inner: inner, rec: rec}
		// The manager finds the extensions by type assertion on the peer
		// it was given; the decorator must offer them.
		var asPeer cosched.Peer = p
		cs, ok := asPeer.(cosched.CoStarter)
		if !ok {
			t.Fatal("decorator hides cosched.CoStarter")
		}
		rc, ok := asPeer.(cosched.Reconciler)
		if !ok {
			t.Fatal("decorator hides cosched.Reconciler")
		}
		p.GetMateJob(1)
		p.GetMateStatus(1)
		p.CanStartMate(1)
		p.TryStartMate(1)
		if err := p.StartMate(1); err == nil {
			t.Error("StartMate's error was swallowed")
		}
		cs.TryStartMateAt(1, 42)
		if inner.at != 42 {
			t.Errorf("TryStartMateAt forwarded instant %d, want 42", inner.at)
		}
		cs.StartMateAt(1, 43)
		if inner.at != 43 {
			t.Errorf("StartMateAt forwarded instant %d, want 43", inner.at)
		}
		if out, _ := rc.ReconcileMates("x", make([]cosched.MateView, 3)); len(out) != 3 || inner.views != 3 {
			t.Errorf("ReconcileMates forwarded %d views and returned %d, want 3 and 3", inner.views, len(out))
		}
		want := []string{"GetMateJob", "GetMateStatus", "CanStartMate", "TryStartMate", "StartMate", "TryStartMateAt", "StartMateAt", "ReconcileMates"}
		if !reflect.DeepEqual(inner.calls, want) {
			t.Errorf("inner saw %v, want %v", inner.calls, want)
		}
		if p.calls != (peerCalls{1, 1, 1, 2, 2, 1}) {
			t.Errorf("counted %v, want [1 1 1 2 2 1]", p.calls)
		}
		if rec != nil && (len(p.durs) != 8 || len(rec.since(0)) != 8) {
			t.Errorf("traced decorator timed %d calls in %d spans, want 8 and 8", len(p.durs), len(rec.since(0)))
		}
	}
}

func TestCountedCellMatchesDirectCell(t *testing.T) {
	cfg := experiments.DefaultConfig(7, 0.02)
	g, err := sweepGroup(nil, experiments.KindLoad, cfg, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf cellBuffers
	var digests [3]string
	var calls [3]peerCalls
	for i, mode := range []cellMode{direct, counted, counted} {
		res, st, err := runCell(nil, cfg, g, 0, mode, &buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		digests[i], calls[i] = digest(res), st.calls
	}
	if digests[0] != digests[1] {
		t.Errorf("wrapping the peers changed the cell: %s vs %s", digests[0], digests[1])
	}
	if calls[0].total() != 0 {
		t.Errorf("direct mode counted %d calls", calls[0].total())
	}
	if calls[1] != calls[2] || calls[1][0] == 0 || calls[1][0] != calls[1][1] {
		t.Errorf("per-method counts %v and %v: want equal, non-zero, one status query per mate lookup", calls[1], calls[2])
	}
}

// fakeFS records the calls a journal.FS and its files receive.
type fakeFS struct {
	calls []string
	fail  error
}

func (f *fakeFS) note(s string) error { f.calls = append(f.calls, s); return f.fail }

func (f *fakeFS) MkdirAll(dir string, _ fs.FileMode) error { return f.note("MkdirAll " + dir) }
func (f *fakeFS) ReadFile(path string) ([]byte, error) {
	return []byte("data"), f.note("ReadFile " + path)
}
func (f *fakeFS) Rename(a, b string) error            { return f.note("Rename " + a + " " + b) }
func (f *fakeFS) Truncate(path string, n int64) error { return f.note("Truncate " + path) }
func (f *fakeFS) SyncDir(dir string) error            { return f.note("SyncDir " + dir) }
func (f *fakeFS) OpenFile(path string, _ int, _ fs.FileMode) (journal.File, error) {
	if err := f.note("OpenFile " + path); err != nil {
		return nil, err
	}
	return &fakeFile{f}, nil
}

type fakeFile struct{ fs *fakeFS }

func (f *fakeFile) Write(p []byte) (int, error) { return len(p), f.fs.note("Write " + string(p)) }
func (f *fakeFile) Sync() error                 { return f.fs.note("Sync") }
func (f *fakeFile) Truncate(int64) error        { return f.fs.note("File.Truncate") }
func (f *fakeFile) Close() error                { return f.fs.note("Close") }

func TestFSDecoratorForwardsEveryMethod(t *testing.T) {
	inner := &fakeFS{}
	tfs := &tracedFS{inner: inner, rec: newRecorder()}
	tfs.MkdirAll("d", 0o755)
	if data, _ := tfs.ReadFile("r"); string(data) != "data" {
		t.Errorf("ReadFile returned %q", data)
	}
	tfs.Truncate("t", 3)
	tfs.SyncDir("d")
	for _, flag := range []int{os.O_WRONLY | os.O_APPEND, os.O_WRONLY | os.O_TRUNC} { // the log, then a snapshot temporary
		file, err := tfs.OpenFile("f", flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := file.Write([]byte("abc")); n != 3 {
			t.Errorf("Write returned %d, want 3", n)
		}
		file.Sync()
		file.Truncate(0)
		file.Close()
	}
	tfs.Rename("a", "b")
	fileCalls := []string{"OpenFile f", "Write abc", "Sync", "File.Truncate", "Close"}
	want := append([]string{"MkdirAll d", "ReadFile r", "Truncate t", "SyncDir d"}, fileCalls...)
	want = append(append(want, fileCalls...), "Rename a b")
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner saw %q, want %q", inner.calls, want)
	}
	// Only the log's write and fsync are timed; the snapshot's open→rename
	// is one compaction.
	if len(tfs.writes) != 1 || len(tfs.syncs) != 1 || len(tfs.compacts) != 1 || tfs.walBytes != 3 {
		t.Errorf("timed %d writes, %d syncs, %d compactions, %d bytes; want 1, 1, 1, 3",
			len(tfs.writes), len(tfs.syncs), len(tfs.compacts), tfs.walBytes)
	}

	inner.fail = errors.New("disk on fire")
	if _, err := tfs.OpenFile("f", os.O_APPEND, 0); !errors.Is(err, inner.fail) {
		t.Errorf("OpenFile error = %v, want the inner error", err)
	}
	for name, err := range map[string]error{
		"MkdirAll": tfs.MkdirAll("d", 0), "Rename": tfs.Rename("a", "b"),
		"Truncate": tfs.Truncate("t", 0), "SyncDir": tfs.SyncDir("d"),
	} {
		if !errors.Is(err, inner.fail) {
			t.Errorf("%s error = %v, want the inner error", name, err)
		}
	}
}

func TestStoreOverDecoratedFS(t *testing.T) {
	dir := t.TempDir()
	tfs := &tracedFS{inner: journal.OSFS{}, rec: newRecorder()}
	store, err := journal.Open(dir, journal.Options{FS: tfs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := store.Append(&journal.Entry{T: sim.Time(i), Op: journal.OpExpect, Job: job.ID(i), Nodes: 1, Runtime: 60, Walltime: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Compact(journal.Snapshot{Domain: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(&journal.Entry{T: 9, Op: journal.OpExpect, Job: 9, Nodes: 1, Runtime: 60, Walltime: 60}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); len(tfs.writes) != int(st.Appends) || len(tfs.syncs) != int(st.Fsyncs) || len(tfs.compacts) != int(st.Compacts) {
		t.Errorf("decorator saw %d writes, %d fsyncs, %d compactions; store counted %+v", len(tfs.writes), len(tfs.syncs), len(tfs.compacts), st)
	}
	cold, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if snap, entries := cold.Recovered(); snap == nil || snap.Seq != 5 || len(entries) != 1 || entries[0].Job != 9 {
		t.Errorf("a plain reopen recovered snapshot %+v and %d entries, want seq 5 and the one entry after it", snap, len(entries))
	}
}

// TestStoreOverUnsyncedFS checks that the end-to-end runs' filesystem only
// drops the fsyncs: what the store writes through it is what a plain reopen
// recovers.
func TestStoreOverUnsyncedFS(t *testing.T) {
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{FS: unsyncedFS{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := store.Append(&journal.Entry{T: sim.Time(i), Op: journal.OpExpect, Job: job.ID(i), Nodes: 1, Runtime: 60, Walltime: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Compact(journal.Snapshot{Domain: "d"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(&journal.Entry{T: 9, Op: journal.OpExpect, Job: 9, Nodes: 1, Runtime: 60, Walltime: 60}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if snap, entries := cold.Recovered(); snap == nil || snap.Seq != 5 || len(entries) != 1 || entries[0].Job != 9 {
		t.Errorf("a plain reopen recovered snapshot %+v and %d entries, want seq 5 and the one entry after it", snap, len(entries))
	}
}

// TestQuietScaling checks the arithmetic that takes measured times to the
// machine's quiet level.
func TestQuietScaling(t *testing.T) {
	const q = 0.002
	// A stretch timed while the loop ran 25 % slow is scaled down by 1.25.
	s := stretch{d: 5 * time.Second, before: 0.0025, after: 0.0025}
	if got := s.atQuiet(q); math.Abs(got-4) > 1e-9 {
		t.Errorf("5 s at level 1.25 scales to %g s, want 4", got)
	}
	// The level changing under a stretch is taken as its mean.
	s = stretch{d: 9 * time.Second, before: 0.002, after: 0.0025}
	if got := s.atQuiet(q); math.Abs(got-8) > 1e-9 {
		t.Errorf("9 s between levels 1 and 1.25 scales to %g s, want 8", got)
	}
	// Four rounds of two parts: each part's lower quartile is taken on its
	// own, so the slow first part of one round and the slow second part of
	// another both drop out.
	at := func(sec float64) stretch {
		return stretch{d: time.Duration(sec * float64(time.Second)), before: q, after: q}
	}
	rounds := []round{
		{parts: []stretch{at(1.0), at(2.0)}},
		{parts: []stretch{at(1.5), at(2.0)}},
		{parts: []stretch{at(1.0), at(2.9)}},
		{parts: []stretch{at(1.1), at(2.1)}},
	}
	if got := quietWall(rounds, q); math.Abs(got-3) > 1e-9 {
		t.Errorf("quietWall = %g s, want 1.0 + 2.0", got)
	}
	if got := rounds[1].whole(); got.d != 3500*time.Millisecond || got.before != q || got.after != q {
		t.Errorf("whole() = %+v", got)
	}
	if got := lowerQuartile([]float64{8, 1, 5, 3, 9, 7, 2, 6}); got != 2 {
		t.Errorf("lowerQuartile of 8 values = %g, want the 2nd smallest", got)
	}
}

// TestSettledQuiet checks the remembered quiet level: it only moves down,
// and a value that cannot be this machine's is dropped.
func TestSettledQuiet(t *testing.T) {
	file := filepath.Join(t.TempDir(), "quiet")
	for i, tc := range []struct{ own, want float64 }{
		{0.0020, 0.0020}, // nothing remembered yet
		{0.0025, 0.0020}, // a run that never met a quiet moment uses the remembered level
		{0.0019, 0.0019}, // a faster run lowers it
		{0.0020, 0.0019},
		{0.0040, 0.0040}, // 0.0019 is more than 40 % below: another machine's
		{0.0041, 0.0040},
	} {
		if got := settledQuiet(file, tc.own); got != tc.want {
			t.Errorf("step %d: settledQuiet(%g) = %g, want %g", i, tc.own, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "unit_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"lower-is-better got 8% worse", lower, steady(100), steady(108), "ok"},
		{"lower-is-better got 15% worse", lower, steady(100), steady(115), "regression"},
		{"lower-is-better got better", lower, steady(100), steady(50), "ok"},
		{"higher-is-better dropped 15%", higher, steady(100), steady(85), "regression"},
		{"higher-is-better rose", higher, steady(100), steady(130), "ok"},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110, 100}, steady(100), "unresolved"},
		{"setup_s is judged on medians alone", metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, []float64{80, 100, 120, 90, 110, 100}, steady(100), "ok"},
	} {
		if got := judge(tc.d, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestGoldenCoversOnlyItsSeed(t *testing.T) {
	for _, w := range []string{"sweep_paper", "sweep_wire", "mega_cell"} {
		if d, ok := goldenDigest(w, 1); !ok || len(d) != 64 {
			t.Errorf("golden.json has no SHA-256 for %s at seed 1", w)
		}
		if _, ok := goldenDigest(w, 2); ok {
			t.Errorf("golden.json claims to cover %s at seed 2", w)
		}
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the tables the program
// reports from in step.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.Name || c.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Name, c.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n program        %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n program        %+v", contract.PerLayer, perLayer)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || math.IsNaN(d.Bound) {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
