package journal

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/invariant"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/predict"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// sampleEntries builds a small, varied, sequence-numbered record stream.
func sampleEntries() []Entry {
	return []Entry{
		{Seq: 1, T: 0, Op: OpSubmit, Job: 1, Nodes: 16, Runtime: 600, Walltime: 700,
			Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Seq: 2, T: 0, Op: OpHold, Job: 1, Holds: 1, Ready: true},
		{Seq: 3, T: 100, Op: OpStart, Job: 1, Start: 100, Holds: 1, HeldNS: 1600, Ready: true},
		{Seq: 4, T: 120, Op: OpPeerDecision, Job: 1, Method: "try_start_mate", OK: true},
		{Seq: 5, T: 700, Op: OpComplete, Job: 1, HeldNS: 1600},
	}
}

func encode(t *testing.T, entries []Entry) []byte {
	t.Helper()
	var buf []byte
	for i := range entries {
		var err error
		buf, err = AppendRecord(buf, &entries[i])
		if err != nil {
			t.Fatalf("append record %d: %v", i, err)
		}
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	in := sampleEntries()
	data := encode(t, in)
	out, valid, torn := DecodeEntries(data)
	if torn != nil {
		t.Fatalf("clean stream reported torn: %v", torn)
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid = %d, want %d", valid, len(data))
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestDecodeEmptyAndNil(t *testing.T) {
	for _, data := range [][]byte{nil, {}} {
		out, valid, torn := DecodeEntries(data)
		if len(out) != 0 || valid != 0 || torn != nil {
			t.Fatalf("empty input: %v %d %v", out, valid, torn)
		}
	}
}

// TestDecodeEntriesAllocatesOnce: decoding a 10,000-entry WAL of
// transition records, whose payloads the strict parser reads without
// allocating, makes one allocation — the entry slice, sized from the frame
// headers before the first payload is decoded — where growing it by append
// made one per doubling. A torn tail after the last good frame adds only
// the *TornTail that reports it.
func TestDecodeEntriesAllocatesOnce(t *testing.T) {
	ops := []Op{OpHold, OpStart, OpComplete}
	in := make([]Entry, 10_000)
	for i := range in {
		in[i] = Entry{Seq: uint64(i + 1), T: sim.Time(i), Op: ops[i%len(ops)], Job: job.ID(i/3 + 1),
			Start: sim.Time(i), Holds: 1, HeldNS: int64(i), Ready: true}
	}
	data := encode(t, in)
	torn := append(data[:len(data):len(data)], 0, 0, 0, 9, 1)
	for _, c := range []struct {
		wal    []byte
		allocs float64
	}{{data, 1}, {torn, 2}} {
		var out []Entry
		allocs := testing.AllocsPerRun(5, func() { out, _, _ = DecodeEntries(c.wal) })
		if len(out) != len(in) || !reflect.DeepEqual(out[len(out)-1], in[len(in)-1]) {
			t.Fatalf("decoded %d entries, want %d ending in %+v", len(out), len(in), in[len(in)-1])
		}
		if allocs != c.allocs {
			t.Fatalf("DecodeEntries of %d entries (%d bytes) made %v allocations, want %v", len(in), len(c.wal), allocs, c.allocs)
		}
	}
}

func TestDecodeTornVariants(t *testing.T) {
	in := sampleEntries()
	clean := encode(t, in)
	// Byte length of the first two records, so we can cut inside record 3.
	twoRec := int64(len(encode(t, in[:2])))

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    int // records that must survive
	}{
		{"truncated mid-record", func(d []byte) []byte {
			return d[:twoRec+5]
		}, 2},
		{"truncated mid-header", func(d []byte) []byte {
			return d[:twoRec+3]
		}, 2},
		{"bit flip in payload", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[twoRec+headerSize+4] ^= 0x40
			return d
		}, 2},
		{"bit flip in length", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[twoRec] ^= 0xFF // implausible length
			return d
		}, 2},
		{"garbage tail", func(d []byte) []byte {
			return append(append([]byte(nil), d...), 0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x01, 0x02, 0x03)
		}, 5},
		{"zero-length record", func(d []byte) []byte {
			return append(append([]byte(nil), d...), 0, 0, 0, 0, 0, 0, 0, 0)
		}, 5},
		{"whole stream garbage", func(d []byte) []byte {
			return bytes.Repeat([]byte{0xab}, 64)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, valid, torn := DecodeEntries(tc.corrupt(clean))
			if torn == nil {
				t.Fatal("corruption not detected")
			}
			if len(out) != tc.want {
				t.Fatalf("survived %d records, want %d (torn: %v)", len(out), tc.want, torn)
			}
			if tc.want > 0 && !reflect.DeepEqual(out, in[:tc.want]) {
				t.Fatalf("surviving records corrupted: %+v", out)
			}
			// The valid prefix must itself decode cleanly after truncation.
			if re, _, retorn := DecodeEntries(tc.corrupt(clean)[:valid]); retorn != nil || len(re) != tc.want {
				t.Fatalf("valid prefix not clean: %d records, torn %v", len(re), retorn)
			}
		})
	}
}

func TestDecodeRejectsSequenceRegression(t *testing.T) {
	in := sampleEntries()
	in[2].Seq = 2 // duplicate of the previous record's sequence
	out, _, torn := DecodeEntries(encode(t, in))
	if torn == nil || len(out) != 2 {
		t.Fatalf("sequence regression not cut: %d records, torn %v", len(out), torn)
	}
	in[2].Seq = 0 // zero is never valid
	out, _, torn = DecodeEntries(encode(t, in[2:3]))
	if torn == nil || len(out) != 0 {
		t.Fatalf("zero sequence accepted: %d records, torn %v", len(out), torn)
	}
}

func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEntries()
	for i := range want {
		e := want[i]
		e.Seq = 0 // Append assigns
		if err := s.Append(&e); err != nil {
			t.Fatal(err)
		}
		if e.Seq != want[i].Seq {
			t.Fatalf("assigned seq %d, want %d", e.Seq, want[i].Seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Append(&Entry{Op: OpYield}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap, entries := re.Recovered()
	if snap != nil {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if re.Torn() != nil {
		t.Fatalf("clean log reported torn: %v", re.Torn())
	}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("recovered entries mismatch:\n got %+v\nwant %+v", entries, want)
	}
	// Sequence numbering continues where the log left off.
	next := Entry{Op: OpCancel, Job: 9}
	if err := re.Append(&next); err != nil {
		t.Fatal(err)
	}
	if next.Seq != want[len(want)-1].Seq+1 {
		t.Fatalf("resumed seq = %d, want %d", next.Seq, want[len(want)-1].Seq+1)
	}
}

func TestStoreTruncatesTornTailAndHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(&Entry{T: sim.Time(i), Op: OpYield, Job: job.ID(i + 1), Yields: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record, as a crash mid-write would.
	wal := filepath.Join(dir, "journal.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Torn() == nil {
		t.Fatal("torn tail not reported")
	}
	_, entries := re.Recovered()
	if len(entries) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(entries))
	}
	// The torn bytes must be physically gone so new appends stay decodable.
	if err := re.Append(&Entry{T: 9, Op: OpCancel, Job: 99}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Torn() != nil {
		t.Fatalf("healed log still torn: %v", final.Torn())
	}
	_, entries = final.Recovered()
	if len(entries) != 4 || entries[3].Job != 99 || entries[3].Seq != 4 {
		t.Fatalf("healed log entries: %+v", entries)
	}
}

// TestLoadLeavesTornTailUntouched: Load replays a directory whose WAL ends
// in a torn record and reports the tear, but writes nothing — the directory
// holds the same files with the same bytes afterwards, and the torn record
// is still there for Open to cut.
func TestLoadLeavesTornTailUntouched(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Compact(Snapshot{Domain: "A"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEntries() {
		if err := s.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(ents))
		for _, de := range ents {
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[de.Name()] = string(data)
		}
		return out
	}
	before := files()

	st, torn, err := Load(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn == nil {
		t.Fatal("torn tail not reported")
	}
	// The torn record is the completion; the four before it replay.
	if st.Domain != "A" || st.Entries != 4 || len(st.Jobs) != 1 || st.Jobs[0].State != job.Running || st.Jobs[0].StartTime != 100 {
		t.Fatalf("loaded %+v, job %+v", st, st.Jobs)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatal("Load changed the journal directory")
	}
	re := openStore(t, dir, Options{})
	if re.Torn() == nil || re.Torn().Off != torn.Off {
		t.Fatalf("Open after Load found torn tail %v, want %v", re.Torn(), torn)
	}
}

func TestStoreRejectsBadOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{FsyncInterval: -time.Second}); err == nil {
		t.Fatal("negative FsyncInterval accepted")
	}
}

func TestStoreRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestStoreFsyncBatching(t *testing.T) {
	// With a long interval and a frozen injected clock, appends must not
	// sync each record but Sync/Close still flush. Observable behaviour:
	// no errors and the log decodes fully after close — the batching path
	// (dirty tracking, lastSync bookkeeping) is exercised either way.
	clock := time.Unix(1000, 0)
	dir := t.TempDir()
	s, err := Open(dir, Options{FsyncInterval: time.Hour, Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(&Entry{Op: OpYield, Job: 1, Yields: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Advancing past the interval makes the next append sync.
	clock = clock.Add(2 * time.Hour)
	if err := s.Append(&Entry{Op: OpYield, Job: 1, Yields: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, entries := re.Recovered(); len(entries) != 11 {
		t.Fatalf("recovered %d entries, want 11", len(entries))
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(&Entry{Op: OpYield, Job: 1, Yields: i}); err != nil {
			t.Fatal(err)
		}
	}
	snap := Snapshot{Domain: "A", T: 42, Jobs: []JobRecord{{ID: 1, Nodes: 4, State: "queued"}}}
	if err := s.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Pending; got != 0 {
		t.Fatalf("appended after compact = %d", got)
	}
	// Entries appended after the checkpoint carry later sequence numbers.
	post := Entry{Op: OpStart, Job: 1, Start: 50}
	if err := s.Append(&post); err != nil {
		t.Fatal(err)
	}
	if post.Seq != 6 {
		t.Fatalf("post-compact seq = %d, want 6", post.Seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rsnap, entries := re.Recovered()
	if rsnap == nil || rsnap.Domain != "A" || rsnap.Seq != 5 || rsnap.T != 42 {
		t.Fatalf("recovered snapshot: %+v", rsnap)
	}
	if len(entries) != 1 || entries[0].Seq != 6 {
		t.Fatalf("recovered wal: %+v", entries)
	}
}

// TestSnapshotBytesPerEntryDoNotGrowWithTheTable: a snapshot rewrites the
// whole job table, so compacting at a fixed count of entries writes
// snapshot bytes per appended entry in proportion to the table, and a
// daemon's compaction work grows with the square of the jobs it has seen.
// With the cadence tied to the snapshot's own size, a recorder over a table
// of 100,000 jobs writes, per entry it appends, no more than a small
// constant factor of what it writes over 1,000 jobs. Each store starts from
// its table's snapshot and appends two snapshots' worth of WAL.
func TestSnapshotBytesPerEntryDoNotGrowWithTheTable(t *testing.T) {
	perEntry := map[int]float64{}
	for _, jobs := range []int{1_000, 100_000} {
		table := Snapshot{Domain: "A", Jobs: make([]JobRecord, jobs)}
		for i := range table.Jobs {
			table.Jobs[i] = JobRecord{ID: job.ID(i + 1), Nodes: 1, State: "queued"}
		}
		sink := &sinkFS{}
		s := openStore(t, "sink", Options{FS: sink, FsyncInterval: time.Hour})
		if err := s.Compact(table); err != nil {
			t.Fatal(err)
		}
		size := sink.snap
		rec := NewRecorder(s, func() Snapshot { return table }, func(err error) { t.Fatal(err) })
		j := job.New(1, 1, 0, 60, 60)
		j.YieldCount = 1
		// A count cadence takes hundreds of snapshots of the large table
		// here; stop once it has written three times what a size cadence
		// writes.
		for sink.wal < 2*size && sink.snap <= size+3*2*size {
			rec.JobYielded(0, j)
		}
		perEntry[jobs] = float64(sink.snap-size) / float64(s.Stats().Appends)
		if perEntry[jobs] == 0 {
			t.Fatalf("%d jobs: no compaction in %d appends after a %d-byte snapshot", jobs, s.Stats().Appends, size)
		}
	}
	if small, large := perEntry[1_000], perEntry[100_000]; large > 2*small {
		t.Fatalf("snapshot bytes per appended entry: %.1f with 1,000 jobs in the table, %.1f with 100,000; want within a factor of 2", small, large)
	}
}

// sinkFS is a journal directory that keeps nothing but the count of bytes
// written to the WAL and to snapshots.
type sinkFS struct{ wal, snap int64 }

// sinkFile adds what is written to it to n.
type sinkFile struct{ n *int64 }

func (f *sinkFS) MkdirAll(string, fs.FileMode) error { return nil }
func (f *sinkFS) SyncDir(string) error               { return nil }
func (f *sinkFS) ReadFile(string) ([]byte, error)    { return nil, fs.ErrNotExist }
func (f *sinkFS) Rename(string, string) error        { return nil }
func (f *sinkFS) Truncate(string, int64) error       { return nil }
func (f *sinkFS) OpenFile(path string, _ int, _ fs.FileMode) (File, error) {
	if filepath.Base(path) == walName {
		return sinkFile{&f.wal}, nil
	}
	return sinkFile{&f.snap}, nil
}

func (f sinkFile) Write(p []byte) (int, error) {
	*f.n += int64(len(p))
	return len(p), nil
}
func (f sinkFile) Sync() error          { return nil }
func (f sinkFile) Truncate(int64) error { return nil }
func (f sinkFile) Close() error         { return nil }

func TestSnapshotJobRoundTrip(t *testing.T) {
	j := job.New(7, 32, 100, 600, 900)
	j.Name = "pair-a"
	j.User = 3
	j.Mates = []job.MateRef{{Domain: "B", Job: 7}}
	for _, st := range []job.State{job.Unsubmitted, job.Queued, job.Holding, job.Running, job.Completed, job.Cancelled} {
		j.State = st
		j.StartTime, j.EndTime, j.HoldStart = 150, 750, 120
		j.YieldCount, j.HoldCount, j.HeldNodeSeconds = 2, 1, 960
		j.EverReady, j.FirstReadyTime = true, 110
		back, err := RecordJob(j).Job()
		if err != nil {
			t.Fatalf("state %s: %v", st, err)
		}
		if !reflect.DeepEqual(back, j) {
			t.Fatalf("state %s round trip:\n got %+v\nwant %+v", st, back, j)
		}
	}
	if _, err := (JobRecord{ID: 1, Nodes: 1, State: "bogus"}).Job(); err == nil {
		t.Fatal("bogus state accepted")
	}
}

func TestReplayHistory(t *testing.T) {
	entries := []Entry{
		{Seq: 1, T: 0, Op: OpExpect, Job: 1, Nodes: 16, Runtime: 600, Walltime: 600, Submit: 5,
			Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Seq: 2, T: 5, Op: OpSubmit, Job: 1, Nodes: 16, Runtime: 600, Walltime: 600, Submit: 5,
			Mates: []job.MateRef{{Domain: "B", Job: 1}}},
		{Seq: 3, T: 5, Op: OpHold, Job: 1, HoldStart: 5, Holds: 1, Ready: true, ReadyAt: 5},
		{Seq: 4, T: 60, Op: OpRelease, Job: 1, HeldNS: 880, OK: true},
		{Seq: 5, T: 70, Op: OpYield, Job: 1, Yields: 1},
		{Seq: 6, T: 80, Op: OpRehold, Job: 1, HoldStart: 80, Holds: 2, Ready: true, ReadyAt: 5},
		{Seq: 7, T: 90, Op: OpPeerDecision, Job: 1, Method: "start_mate", OK: true},
		{Seq: 8, T: 90, Op: OpStart, Job: 1, Start: 90, Holds: 2, Yields: 1, HeldNS: 1040, Ready: true, ReadyAt: 5},
		{Seq: 9, T: 20, Op: OpSubmit, Job: 2, Nodes: 8, Runtime: 100, Walltime: 100, Submit: 20},
		{Seq: 10, T: 690, Op: OpComplete, Job: 1, HeldNS: 1040},
		{Seq: 11, T: 700, Op: OpCancel, Job: 2},
	}
	st, err := Replay(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 11 || st.T != 700 || len(st.Jobs) != 2 {
		t.Fatalf("state: entries=%d t=%d jobs=%d", st.Entries, st.T, len(st.Jobs))
	}
	j1, j2 := st.Jobs[0], st.Jobs[1]
	if j1.State != job.Completed || j1.StartTime != 90 || j1.EndTime != 690 {
		t.Fatalf("j1: %+v", j1)
	}
	if j1.HoldCount != 2 || j1.YieldCount != 1 || j1.HeldNodeSeconds != 1040 {
		t.Fatalf("j1 counters: holds=%d yields=%d heldns=%d", j1.HoldCount, j1.YieldCount, j1.HeldNodeSeconds)
	}
	if !j1.EverReady || j1.FirstReadyTime != 5 || j1.HoldStart != 80 {
		t.Fatalf("j1 readiness: %+v", j1)
	}
	if len(j1.Mates) != 1 || j1.Mates[0] != (job.MateRef{Domain: "B", Job: 1}) {
		t.Fatalf("j1 mates: %+v", j1.Mates)
	}
	if j2.State != job.Cancelled || j2.EndTime != 700 {
		t.Fatalf("j2: %+v", j2)
	}
}

func TestReplaySkipsEntriesCoveredBySnapshot(t *testing.T) {
	snap := &Snapshot{Domain: "A", Seq: 3, T: 50, Jobs: []JobRecord{
		{ID: 1, Nodes: 16, Runtime: 600, Walltime: 600, Submit: 5, State: "holding", HoldStart: 5, Holds: 1},
	}}
	entries := []Entry{
		{Seq: 3, T: 5, Op: OpHold, Job: 1, Holds: 1}, // covered: must be skipped
		{Seq: 4, T: 90, Op: OpStart, Job: 1, Start: 90, Holds: 1},
	}
	st, err := Replay(snap, entries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Domain != "A" || st.Entries != 1 || st.T != 90 {
		t.Fatalf("state: %+v", st)
	}
	if st.Jobs[0].State != job.Running || st.Jobs[0].StartTime != 90 {
		t.Fatalf("job: %+v", st.Jobs[0])
	}
}

func TestReplayRejectsIllegalHistories(t *testing.T) {
	cases := []struct {
		name    string
		entries []Entry
	}{
		{"double start", []Entry{
			{Seq: 1, T: 0, Op: OpSubmit, Job: 1, Nodes: 1, Submit: 0},
			{Seq: 2, T: 1, Op: OpStart, Job: 1, Start: 1},
			{Seq: 3, T: 2, Op: OpStart, Job: 1, Start: 2},
		}},
		{"start of unknown job", []Entry{
			{Seq: 1, T: 1, Op: OpStart, Job: 1, Start: 1},
		}},
		{"hold after completion", []Entry{
			{Seq: 1, T: 0, Op: OpSubmit, Job: 1, Nodes: 1, Submit: 0},
			{Seq: 2, T: 1, Op: OpStart, Job: 1, Start: 1},
			{Seq: 3, T: 2, Op: OpComplete, Job: 1},
			{Seq: 4, T: 3, Op: OpHold, Job: 1, Holds: 1},
		}},
		{"expect of known job", []Entry{
			{Seq: 1, T: 0, Op: OpSubmit, Job: 1, Nodes: 1, Submit: 0},
			{Seq: 2, T: 1, Op: OpExpect, Job: 1, Nodes: 1},
		}},
		{"unknown op", []Entry{
			{Seq: 1, T: 0, Op: Op("warp"), Job: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Replay(nil, tc.entries); err == nil {
				t.Fatal("illegal history replayed without error")
			}
		})
	}
}

// liveDomain builds a manager journaled by a Recorder, closing over the
// manager pointer the way the daemon does; others observe it in a Tee
// ahead of the recorder.
func liveDomain(t *testing.T, eng *sim.Engine, name string, nodes int, store *Store, others ...resmgr.Observer) *resmgr.Manager {
	t.Helper()
	var m *resmgr.Manager
	rec := NewRecorder(store, func() Snapshot { return ManagerSnapshot(m) }, func(err error) {
		t.Errorf("journal %s: %v", name, err)
	})
	m = resmgr.New(eng, resmgr.Options{
		Name: name, Pool: cluster.New(name, nodes),
		Policy: policy.FCFS{}, Backfilling: true,
		Cosched:  cosched.DefaultConfig(cosched.Hold),
		Observer: append(resmgr.Tee(others), rec),
	})
	return m
}

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// submitRecoveryWorkload submits the recovery tests' workload: the a1/b1
// pair (b1 arrives at 100), a 32-node a2 queued behind a1, and b3 on B.
func submitRecoveryWorkload(t *testing.T, a, b *resmgr.Manager) (a1, a2, b1, b3 *job.Job) {
	t.Helper()
	a1, b1 = job.New(1, 16, 0, 600, 600), job.New(1, 16, 100, 600, 600)
	a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	a2, b3 = job.New(2, 32, 50, 300, 300), job.New(3, 8, 20, 200, 200)
	if err := errors.Join(a.SubmitAt(a1), a.SubmitAt(a2), b.SubmitAt(b1), b.SubmitAt(b3)); err != nil {
		t.Fatal(err)
	}
	return a1, a2, b1, b3
}

// TestRecorderReplayMatchesLiveState runs a coupled simulation under the
// recorder and checks that replaying the journal reproduces the managers'
// final job tables exactly. SnapshotEvery is tiny so compaction happens
// mid-run and replay crosses snapshot boundaries.
func TestRecorderReplayMatchesLiveState(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	storeA := openStore(t, dirA, Options{SnapshotEvery: 4})
	storeB := openStore(t, dirB, Options{SnapshotEvery: 4})
	eng := sim.NewEngine()
	a := liveDomain(t, eng, "A", 32, storeA)
	b := liveDomain(t, eng, "B", 32, storeB)
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	a1, _, b1, _ := submitRecoveryWorkload(t, a, b)
	eng.Run()
	if a1.State != job.Completed || b1.State != job.Completed {
		t.Fatalf("pair did not complete: %s / %s", a1.State, b1.State)
	}
	if err := storeA.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := storeB.Sync(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		dir string
		m   *resmgr.Manager
	}{{dirA, a}, {dirB, b}} {
		re := openStore(t, tc.dir, Options{})
		snap, entries := re.Recovered()
		if snap == nil {
			t.Fatalf("%s: no snapshot despite SnapshotEvery=4", tc.m.Name())
		}
		st, err := Replay(snap, entries)
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.m.Name(), err)
		}
		live := ManagerSnapshot(tc.m)
		if len(st.Jobs) != len(live.Jobs) {
			t.Fatalf("%s: replay has %d jobs, live has %d", tc.m.Name(), len(st.Jobs), len(live.Jobs))
		}
		for i, j := range st.Jobs {
			want, err := live.Jobs[i].Job()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(j, want) {
				t.Fatalf("%s job %d:\n replay %+v\n live   %+v", tc.m.Name(), j.ID, j, want)
			}
		}
	}
}

// TestRecorderInTeeJournalsExpectAndPeerDecision: sharing a resmgr.Tee
// with an auditor and a deadlock monitor, the recorder still journals the two
// transitions only it hears — the expectation of a1 and the start b1's
// domain asks of A once a1 has held for it.
func TestRecorderInTeeJournalsExpectAndPeerDecision(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir, Options{})
	aud := invariant.NewDeferred()
	mon := invariant.NewMonitor()
	eng := sim.NewEngine()
	a := liveDomain(t, eng, "A", 32, store, aud, mon)
	aud.Bind(a)
	b := resmgr.New(eng, resmgr.Options{Name: "B", Pool: cluster.New("B", 32), Cosched: cosched.DefaultConfig(cosched.Hold)})
	mon.Register(a)
	mon.Register(b)
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	a1 := job.New(1, 16, 0, 600, 600)
	b1 := job.New(1, 16, 100, 600, 600)
	a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	if err := errors.Join(a.SubmitAt(a1), b.SubmitAt(b1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a1.StartTime != 100 || b1.StartTime != 100 {
		t.Fatalf("pair started at %d/%d, want 100/100", a1.StartTime, b1.StartTime)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	_, entries := openStore(t, dir, Options{}).Recovered()
	ops := map[Op]bool{}
	for _, e := range entries {
		ops[e.Op] = true
	}
	if !ops[OpExpect] || !ops[OpPeerDecision] {
		t.Errorf("A's journal ops %v lack expect or peer-decision", ops)
	}
	if aud.Events() == 0 || len(aud.Violations()) != 0 || mon.Scans() == 0 {
		t.Errorf("auditor: %d events, violations %v; monitor: %d scans", aud.Events(), aud.Violations(), mon.Scans())
	}
}

// TestRestoreContinuesAfterCrash is the core recovery scenario: both
// domains journal, the simulation is cut mid-run (a1 holding for a mate
// not yet submitted, b3 running, a2 queued), and fresh managers rebuilt
// from the journals alone finish the workload with the co-start intact.
func TestRestoreContinuesAfterCrash(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	storeA := openStore(t, dirA, Options{})
	storeB := openStore(t, dirB, Options{})
	eng := sim.NewEngine()
	a := liveDomain(t, eng, "A", 32, storeA)
	b := liveDomain(t, eng, "B", 32, storeB)
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	a1, _, _, b3 := submitRecoveryWorkload(t, a, b)
	eng.RunUntil(80) // crash: a1 holding, a2 queued, b3 running, b1 expected
	if a1.State != job.Holding || b3.State != job.Running {
		t.Fatalf("pre-crash states: a1=%s b3=%s", a1.State, b3.State)
	}
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh engine, fresh managers, state from the journals only.
	eng2 := sim.NewEngine()
	a = liveDomain(t, eng2, "A", 32, openStore(t, t.TempDir(), Options{}))
	b = liveDomain(t, eng2, "B", 32, openStore(t, t.TempDir(), Options{}))
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	for _, rt := range []struct {
		dir string
		m   *resmgr.Manager
	}{{dirB, b}, {dirA, a}} { // B first: its last record is earlier
		re := openStore(t, rt.dir, Options{})
		snap, entries := re.Recovered()
		st, err := Replay(snap, entries)
		if err != nil {
			t.Fatalf("%s: replay: %v", rt.m.Name(), err)
		}
		stats, err := Restore(rt.m, st)
		if err != nil {
			t.Fatalf("%s: restore: %v", rt.m.Name(), err)
		}
		if rt.m.Name() == "A" && (stats.Holding != 1 || stats.Queued != 1) {
			t.Fatalf("A restore stats: %s", stats)
		}
		if rt.m.Name() == "B" && (stats.Running != 1 || stats.Expected != 1) {
			t.Fatalf("B restore stats: %s", stats)
		}
	}
	// b1 was only Expected before the crash; re-arm its arrival the way a
	// trace player (or qsub) would after a restart.
	rb1, ok := b.Job(1)
	if !ok || rb1.State != job.Unsubmitted {
		t.Fatalf("b1 not restored as expected: %v %v", rb1, ok)
	}
	if _, err := eng2.At(rb1.SubmitTime, sim.PrioritySubmit, func(sim.Time) {
		if err := b.Submit(rb1); err != nil {
			t.Errorf("resubmit b1: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng2.Run()

	ra1, _ := a.Job(1)
	ra2, _ := a.Job(2)
	rb3, _ := b.Job(3)
	for _, j := range []*job.Job{ra1, ra2, rb1, rb3} {
		if j.State != job.Completed {
			t.Fatalf("job %s not completed after recovery", j)
		}
	}
	if ra1.StartTime != rb1.StartTime || ra1.StartTime != 100 {
		t.Fatalf("co-start after recovery: a1=%d b1=%d, want 100", ra1.StartTime, rb1.StartTime)
	}
	if rb3.EndTime != 220 {
		t.Fatalf("b3 end = %d, want 220 (runtime preserved across restart)", rb3.EndTime)
	}
	if ra2.StartTime != 700 {
		t.Fatalf("a2 start = %d, want 700 (after the pair finishes)", ra2.StartTime)
	}
	if a.Pool().Free() != 32 || b.Pool().Free() != 32 {
		t.Fatalf("pools not drained: %s / %s", a.Pool(), b.Pool())
	}
}

// TestRestoreKeepsEstimatorHistory: a manager rebuilt from its journal
// predicts runtimes as the crashed one did. The users survive the journal,
// and the completions replay in the order they happened, not in ID order,
// which would leave other runtimes in each user's two-job window; the job
// still running at the crash feeds nothing.
func TestRestoreKeepsEstimatorHistory(t *testing.T) {
	domain := func(eng *sim.Engine, store *Store, est predict.Estimator) *resmgr.Manager {
		var m *resmgr.Manager
		rec := NewRecorder(store, func() Snapshot { return ManagerSnapshot(m) }, func(err error) { t.Error(err) })
		m = resmgr.New(eng, resmgr.Options{Name: "A", Pool: cluster.New("A", 100), Backfilling: true, Estimator: est, Observer: rec})
		return m
	}
	dir := t.TempDir()
	store := openStore(t, dir, Options{SnapshotEvery: 4})
	crashed := predict.NewUserAverage(2)
	eng := sim.NewEngine()
	m := domain(eng, store, crashed)
	for i, s := range []struct {
		user    int
		runtime sim.Duration
	}{{1, 500}, {1, 100}, {1, 300}, {2, 700}, {2, 900}, {2, 200}, {1, 5000}} {
		j := job.New(job.ID(i+1), 1, 0, s.runtime, 10000)
		j.User = s.user
		if err := m.SubmitAt(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(1000)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	snap, entries := openStore(t, dir, Options{}).Recovered()
	st, err := Replay(snap, entries)
	if err != nil {
		t.Fatal(err)
	}
	restarted := predict.NewUserAverage(2)
	if _, err := Restore(domain(sim.NewEngine(), openStore(t, t.TempDir(), Options{}), restarted), st); err != nil {
		t.Fatal(err)
	}
	for user, want := range map[int]sim.Duration{1: 600, 2: 1200, 3: 10000} {
		probe := job.New(99, 1, 0, 1, 10000)
		probe.User = user
		if got, had := restarted.Estimate(probe), crashed.Estimate(probe); got != had || got != want {
			t.Errorf("user %d: restarted estimate %d, crashed %d; want %d", user, got, had, want)
		}
	}
}

// buildBigLog builds n entries spread over n/4 jobs through a full
// submit→hold→start→complete lifecycle.
func buildBigLog(n int) []Entry {
	entries := make([]Entry, 0, n)
	seq := uint64(0)
	add := func(e Entry) {
		seq++
		e.Seq = seq
		entries = append(entries, e)
	}
	for id := job.ID(1); len(entries)+4 <= n; id++ {
		t := sim.Time(id) * 10
		add(Entry{T: t, Op: OpSubmit, Job: id, Nodes: 8, Runtime: 600, Walltime: 600, Submit: t,
			Mates: []job.MateRef{{Domain: "B", Job: id}}})
		add(Entry{T: t, Op: OpHold, Job: id, HoldStart: t, Holds: 1, Ready: true, ReadyAt: t})
		add(Entry{T: t + 50, Op: OpStart, Job: id, Start: t + 50, Holds: 1, HeldNS: 400, Ready: true, ReadyAt: t})
		add(Entry{T: t + 650, Op: OpComplete, Job: id, HeldNS: 400})
	}
	for len(entries) < n {
		add(Entry{T: 0, Op: OpPeerDecision, Job: 1, Method: "try_start_mate"})
	}
	return entries
}

func BenchmarkReplay10k(b *testing.B) {
	entries := buildBigLog(10_000)
	var buf []byte
	for i := range entries {
		var err error
		buf, err = AppendRecord(buf, &entries[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, _, torn := DecodeEntries(buf)
		if torn != nil || len(decoded) != len(entries) {
			b.Fatalf("decode: %d records, torn %v", len(decoded), torn)
		}
		if _, err := Replay(nil, decoded); err != nil {
			b.Fatal(err)
		}
	}
}
