package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cosched/internal/job"
)

// entryDecodesAlike decodes payload as DecodeEntries does and through
// json.Unmarshal alone, and fails unless the two agree on the value and on
// whether it is an error.
func entryDecodesAlike(t *testing.T, payload []byte) {
	t.Helper()
	got, err := decodeEntry(payload)
	var want Entry
	wantErr := json.Unmarshal(payload, &want)
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("entry %q: codec %+v, %v; encoding/json %+v, %v", payload, got, err, want, wantErr)
	}
}

// entryEncodesAlike fails unless AppendRecord frames json.Marshal's bytes
// for e — length and checksum over exactly those — and returns them.
func entryEncodesAlike(t *testing.T, e *Entry) []byte {
	t.Helper()
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", e, err)
	}
	prefix := []byte("earlier records stay")
	rec, err := AppendRecord(prefix, e)
	if err != nil {
		t.Fatalf("AppendRecord(%+v): %v", e, err)
	}
	hdr, payload := rec[len(prefix):len(prefix)+headerSize], rec[len(prefix)+headerSize:]
	if !bytes.Equal(payload, want) || !bytes.HasPrefix(rec, prefix) ||
		binary.BigEndian.Uint32(hdr) != uint32(len(want)) || binary.BigEndian.Uint32(hdr[4:]) != crc32.ChecksumIEEE(want) {
		t.Fatalf("AppendRecord(%+v)\n got %q\nwant %q framed", e, rec, want)
	}
	return want
}

func snapshotDecodesAlike(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeSnapshot(data)
	var want Snapshot
	wantErr := json.Unmarshal(data, &want)
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(*got, want) {
		t.Fatalf("snapshot %q: codec %+v, %v; encoding/json %+v, %v", data, *got, err, want, wantErr)
	}
}

func snapshotEncodesAlike(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", snap, err)
	}
	got, err := marshalSnapshot(make([]byte, 0, 16), snap)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("marshalSnapshot(%+v)\n got %q, %v\nwant %q", snap, got, err, want)
	}
	return want
}

// TestJournalCodecRefusals: every payload here is outside the strict
// parsers' language — as an entry and as a snapshot — so both must refuse
// it and the decode must land on whatever encoding/json makes of it.
func TestJournalCodecRefusals(t *testing.T) {
	for name, payload := range map[string]string{
		"quote in name":     `{"seq":1,"t":0,"op":"submit","name":"a\"b","domain":"a\"b"}`,
		"angle in name":     `{"seq":1,"t":0,"op":"submit","name":"a\u003cb","jobs":[{"id":1,"name":"a\u003cb"}]}`,
		"raw angle in name": `{"seq":1,"t":0,"op":"submit","name":"a<b","jobs":[{"id":1,"name":"a<b"}]}`,
		"non-ASCII name":    `{"seq":1,"t":0,"op":"submit","name":"é","domain":"é"}`,
		"whitespace":        `{"seq":1, "t":0}`,
		"newline after":     "{\"seq\":1,\"t\":0}\n",
		"space in jobs":     `{"seq":1,"jobs":[{"id":1}, {"id":2}]}`,
		"duplicate key":     `{"seq":1,"seq":2}`,
		"duplicate in job":  `{"seq":1,"jobs":[{"id":1,"id":2}],"t":1,"t":2}`,
		"unknown key":       `{"seq":1,"extra":5}`,
		"unknown in job":    `{"seq":1,"op":1.5,"jobs":[{"id":1,"op":"x"}]}`,
		"uppercase key":     `{"Seq":1,"T":5,"OP":"hold","DOMAIN":"A"}`,
		"null members":      `{"seq":1,"op":null,"mates":null,"jobs":null,"domain":null}`,
		"null job":          `{"seq":1,"jobs":[null],"mates":[null]}`,
		"null document":     `null`,
		"empty mates":       `{"seq":1,"t":0,"op":"submit","job":1,"mates":[],"jobs":[{"id":1,"mates":[]}]}`,
		"half a mate":       `{"seq":1,"mates":[{"Domain":"B"}],"jobs":[{"id":1,"mates":[{"Job":1}]}]}`,
		"negative seq":      `{"seq":-1}`,
		"leading zero":      `{"seq":01}`,
		"fraction":          `{"seq":1,"t":2.0}`,
		"exponent":          `{"seq":1,"t":1e3}`,
		"seq overflow":      `{"seq":18446744073709551616}`,
		"t overflow":        `{"seq":1,"t":9223372036854775808}`,
		"t underflow":       `{"seq":1,"t":-9223372036854775809}`,
		"wrong type":        `{"seq":"1","ready":1,"jobs":{},"mates":{}}`,
		"trailing bytes":    `{"seq":1}x`,
		"truncated":         `{"seq":1,"jobs":[{"id":1}`,
		"empty":             ``,
	} {
		t.Run(name, func(t *testing.T) {
			if parseEntry([]byte(payload), new(Entry)) {
				t.Errorf("parseEntry accepted %q", payload)
			}
			if parseSnapshot([]byte(payload), new(Snapshot)) {
				t.Errorf("parseSnapshot accepted %q", payload)
			}
			entryDecodesAlike(t, []byte(payload))
			snapshotDecodesAlike(t, []byte(payload))
		})
	}
}

// TestJournalCodecAccepts pins what the strict parsers take themselves:
// what the encoders write, members in any order, the integer extremes.
func TestJournalCodecAccepts(t *testing.T) {
	for _, payload := range []string{
		`{}`,
		`{"seq":1,"t":0,"op":"hold","job":7,"ready":true,"ready_at":5,"holds":1,"hold_start":5}`,
		`{"seq":18446744073709551615,"t":-9223372036854775808,"op":"submit","job":7,"name":"pair-a","user":3,"nodes":16,"runtime":600,"walltime":900,"submit":5,"mates":[{"Domain":"B","Job":7},{"Domain":"C","Job":-7}]}`,
		`{"ok":false,"method":"try_start_mate","op":"no such op","t":-0,"seq":2}`,
		`{"domain":"A","seq":5,"t":42,"jobs":[]}`,
		`{"domain":"A","seq":5,"t":42,"jobs":[{"id":1,"nodes":4,"runtime":0,"walltime":0,"submit":0,"state":"queued"},{"id":2,"name":"n","user":1,"nodes":4,"runtime":1,"walltime":2,"submit":3,"mates":[{"Domain":"B","Job":2}],"state":"running","start":4,"end":5,"hold_start":6,"yields":7,"holds":8,"held_ns":9,"ready":true,"ready_at":10}]}`,
		`{"jobs":[{},{"state":"no such state","id":-1}],"domain":""}`,
	} {
		if !parseEntry([]byte(payload), new(Entry)) && !parseSnapshot([]byte(payload), new(Snapshot)) {
			t.Errorf("neither parser accepted %q", payload)
		}
		entryDecodesAlike(t, []byte(payload))
		snapshotDecodesAlike(t, []byte(payload))
	}
}

// TestJournalEncodersMatchJSONMarshal: the encoders' bytes are
// json.Marshal's for what they write themselves and for what they hand on.
func TestJournalEncodersMatchJSONMarshal(t *testing.T) {
	for _, e := range append(sampleEntries(),
		Entry{},
		Entry{Seq: math.MaxUint64, T: math.MinInt64, Op: OpRelease, Job: math.MaxInt64, HeldNS: math.MinInt64, OK: true},
		Entry{Seq: 1, Op: OpExpect, Job: 1, Name: `a"b<c>&é`, Nodes: 1},
		Entry{Seq: 2, Op: OpSubmit, Job: 1, Nodes: 1, Mates: []job.MateRef{{Domain: "B"}, {Domain: "\xff", Job: 2}}},
		Entry{Seq: 3, Op: "a\nb", Method: "\x7f", Mates: []job.MateRef{}},
	) {
		entryDecodesAlike(t, entryEncodesAlike(t, &e))
	}
	rec := JobRecord{ID: 2, Name: "n", User: 1, Nodes: 4, Runtime: 1, Walltime: 2, Submit: 3,
		Mates: []job.MateRef{{Domain: "B", Job: 2}}, State: "running",
		Start: 4, End: 5, HoldStart: 6, Yields: 7, Holds: 8, HeldNS: 9, Ready: true, ReadyAt: 10}
	for _, snap := range []Snapshot{
		{},
		{Domain: "A", Seq: 5, T: 42, Jobs: []JobRecord{}},
		{Domain: "A", Seq: 5, T: 42, Jobs: []JobRecord{{ID: 1, Nodes: 4, State: "queued"}, rec, {}}},
		{Domain: "é", Jobs: []JobRecord{rec}},
		{Domain: "A", Jobs: []JobRecord{rec, {ID: 3, Name: "a<b", State: "queued"}}},
		{Domain: "A", Jobs: []JobRecord{{ID: 3, State: "\x00"}, {ID: 4, Mates: []job.MateRef{{Domain: "a&b"}}}}},
	} {
		snapshotDecodesAlike(t, snapshotEncodesAlike(t, &snap))
	}
}

// fuzzEntry builds an entry from a fuzzer's values: mask says which optional
// members are set.
func fuzzEntry(seq uint64, v1, v2, v3 int64, mask uint32, s1, s2, s3 string) Entry {
	opt := func(i uint, v int64) int64 {
		if mask>>i&1 == 0 {
			return 0
		}
		return v
	}
	e := Entry{
		Seq: seq, T: v1, Op: Op(s1), Job: job.ID(opt(0, v2)),
		User: int(opt(1, v3)), Nodes: int(opt(2, v1)), Runtime: opt(3, v2), Walltime: opt(4, v3), Submit: opt(5, v1),
		Start: opt(6, v2), Ready: mask>>7&1 != 0, ReadyAt: opt(8, v3),
		Yields: int(opt(9, v1)), Holds: int(opt(10, v2)), HeldNS: opt(11, v3), HoldStart: opt(12, v1),
		OK: mask>>13&1 != 0,
	}
	if mask>>14&1 != 0 {
		e.Name, e.Method = s2, s3
	}
	for i := 0; i < int(mask>>15&3); i++ {
		e.Mates = append(e.Mates, job.MateRef{Domain: s3, Job: job.ID(v2 + int64(i))})
	}
	return e
}

// FuzzEntryCodec is the differential target for the write-ahead entry
// codec: every payload decodes to what json.Unmarshal alone gives (same
// value, same error-ness), every entry is framed with json.Marshal's bytes,
// and what was written decodes both ways alike.
func FuzzEntryCodec(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t":0,"op":"submit","job":1,"nodes":16,"runtime":600,"walltime":600,"mates":[{"Domain":"B","Job":1}]}`), uint64(1), int64(0), int64(1), int64(600), uint32(0xffff), "submit", "", "B")
	f.Add([]byte(`{"seq":3,"t":100,"op":"start","job":1,"start":100,"ready":true,"holds":1,"held_ns":1600}`), uint64(math.MaxUint64), int64(math.MinInt64), int64(math.MaxInt64), int64(-1), uint32(0x3fff), "start", "pair-a", "try_start_mate")
	f.Add([]byte(`{"seq":4,"t":0,"op":"expect","name":"a\"b","mates":[]}`), uint64(4), int64(1), int64(2), int64(3), uint32(0x1c000), "a\"b\\c", "<x>&", "é")
	f.Add([]byte(`{"seq":5,"seq":6,"Seq":7,"extra":null,"mates":null}`), uint64(5), int64(0), int64(0), int64(0), uint32(0), "\xff", " ", "\x00\x1f\x7f")
	f.Add([]byte(` {"seq": 01, "t": -0, "nodes": 1e3}x`), uint64(6), int64(-0), int64(1), int64(1), uint32(0x5555), "", "", "")
	f.Add([]byte(`{"seq":18446744073709551616,"t":9223372036854775808,"job":-9223372036854775809}`), uint64(7), int64(9), int64(9), int64(9), uint32(0x8000), "hold", "A", "B")
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, v1, v2, v3 int64, mask uint32, s1, s2, s3 string) {
		entryDecodesAlike(t, payload)
		e := fuzzEntry(seq, v1, v2, v3, mask, s1, s2, s3)
		entryDecodesAlike(t, entryEncodesAlike(t, &e))
	})
}

// FuzzSnapshotCodec is FuzzEntryCodec for the snapshot file.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add([]byte(`{"domain":"A","seq":5,"t":42,"jobs":[{"id":1,"nodes":4,"runtime":60,"walltime":60,"submit":0,"mates":[{"Domain":"B","Job":1}],"state":"running","start":3}]}`), uint64(5), int64(42), int64(1), int64(60), uint32(0xffff), uint8(2), "A", "running", "B")
	f.Add([]byte(`{"domain":"A","seq":0,"t":0,"jobs":[]}`), uint64(math.MaxUint64), int64(math.MinInt64), int64(math.MaxInt64), int64(-1), uint32(0), uint8(1), "", "", "")
	f.Add([]byte(`{"domain":"A","seq":1,"t":0,"jobs":null}`), uint64(1), int64(1), int64(2), int64(3), uint32(0x1c000), uint8(0), "a\"b\\c", "<x>&", "é")
	f.Add([]byte(`{"domain":"a\"b","seq":1,"seq":2,"jobs":[{"id":1,"id":2,"extra":null,"mates":[]}]}`), uint64(2), int64(0), int64(0), int64(0), uint32(0x7fff), uint8(3), "\xff", " ", "\x00\x1f\x7f")
	f.Add([]byte(` {"seq": 01, "t": -0, "jobs": [ {"nodes": 1e3} ]}x`), uint64(3), int64(-0), int64(1), int64(1), uint32(0x5555), uint8(4), "", "", "")
	f.Add([]byte(`{"seq":18446744073709551616,"jobs":[{"id":9223372036854775808,"nodes":-9223372036854775809}]}`), uint64(4), int64(9), int64(9), int64(9), uint32(0x8000), uint8(5), "A", "holding", "B")
	f.Fuzz(func(t *testing.T, data []byte, seq uint64, v1, v2, v3 int64, mask uint32, nJobs uint8, s1, s2, s3 string) {
		snapshotDecodesAlike(t, data)
		// Job tables: none (null), empty, or up to four records built as
		// entries are, so every optional member comes and goes with the mask.
		snap := Snapshot{Domain: s1, Seq: seq, T: v1}
		if nJobs%6 != 0 {
			snap.Jobs = []JobRecord{}
		}
		for i := 1; i < int(nJobs%6); i++ {
			e := fuzzEntry(seq, v1+int64(i), v2, v3, mask>>uint(i-1), s2, s3, s1)
			snap.Jobs = append(snap.Jobs, JobRecord{
				ID: e.Job, Name: e.Name, User: e.User, Nodes: e.Nodes, Runtime: e.Runtime, Walltime: e.Walltime, Submit: e.Submit,
				Mates: e.Mates, State: string(e.Op), Start: e.Start, End: e.T, HoldStart: e.HoldStart,
				Yields: e.Yields, Holds: e.Holds, HeldNS: e.HeldNS, Ready: e.Ready, ReadyAt: e.ReadyAt,
			})
		}
		snapshotDecodesAlike(t, snapshotEncodesAlike(t, &snap))
	})
}

// TestJournalDirectoryReadableAcrossCodecs: a daemon with the hand-written
// codec and one with plain encoding/json must read each other's journal
// directory. "Old" here is what the store did before the codec: frames
// around json.Marshal, json.Unmarshal of every payload and of the snapshot.
func TestJournalDirectoryReadableAcrossCodecs(t *testing.T) {
	mates := []job.MateRef{{Domain: "B", Job: 7}}
	wal := []Entry{
		{T: 1, Op: OpExpect, Job: 7, Nodes: 16, Runtime: 600, Walltime: 900, Mates: mates},
		{T: 2, Op: OpSubmit, Job: 7, Nodes: 16, Runtime: 600, Walltime: 900, Submit: 2, Mates: mates},
		{T: 2, Op: OpHold, Job: 7, HoldStart: 2, Holds: 1, Ready: true, ReadyAt: 2},
		{T: 9, Op: OpPeerDecision, Job: 7, Method: "start_mate", OK: true},
		{T: 9, Op: OpStart, Job: 7, Start: 9, Ready: true, ReadyAt: 2, Holds: 1, HeldNS: 112},
	}
	escaped := []Entry{
		{T: 1, Op: OpExpect, Job: 8, Name: `née "<pair>"`, Nodes: 1, Runtime: 1, Walltime: 1, Mates: []job.MateRef{{Domain: "b&b", Job: 8}}},
		{T: 2, Op: OpCancel, Job: 8},
	}
	running := JobRecord{ID: 1, Nodes: 4, Runtime: 60, Walltime: 90, Submit: 1, Mates: []job.MateRef{{Domain: "B", Job: 1}},
		State: "running", Start: 3, HoldStart: 1, Holds: 1, HeldNS: 8, Ready: true, ReadyAt: 1}
	for _, tc := range []struct {
		name string
		snap *Snapshot // nil: the directory has no snapshot
		wal  []Entry
	}{
		{"log only", nil, wal},
		{"snapshot and log", &Snapshot{Domain: "A", T: 5, Jobs: []JobRecord{running, {ID: 2, Nodes: 1, State: "queued"}}}, wal},
		{"empty job table", &Snapshot{Domain: "A", T: 5, Jobs: []JobRecord{}}, wal[:2]},
		{"nil job table", &Snapshot{Domain: "A", T: 5}, nil},
		{"strings that need escapes", &Snapshot{Domain: "é", T: 5, Jobs: []JobRecord{running, {ID: 8, Name: `née "<pair>"`, State: "queued"}}}, escaped},
	} {
		t.Run(tc.name+"/old writer, new reader", func(t *testing.T) {
			dir := t.TempDir()
			var seq uint64
			if tc.snap != nil {
				snap := *tc.snap
				snap.Seq, seq = 40, 40
				data, err := json.Marshal(&snap)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var log []byte
			want := append([]Entry(nil), tc.wal...)
			for i := range want {
				seq++
				want[i].Seq = seq
				payload, err := json.Marshal(&want[i])
				if err != nil {
					t.Fatal(err)
				}
				log = binary.BigEndian.AppendUint32(log, uint32(len(payload)))
				log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
				log = append(log, payload...)
			}
			if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openStore(t, dir, Options{})
			snap, entries := s.Recovered()
			if s.Torn() != nil || len(entries) != len(want) || len(want) > 0 && !reflect.DeepEqual(entries, want) {
				t.Fatalf("recovered log %+v (torn %v), want %+v", entries, s.Torn(), want)
			}
			if (snap == nil) != (tc.snap == nil) {
				t.Fatalf("recovered snapshot %+v, want %+v", snap, tc.snap)
			}
			if snap != nil {
				wantSnap := *tc.snap
				wantSnap.Seq = 40
				if !reflect.DeepEqual(*snap, wantSnap) {
					t.Fatalf("recovered snapshot %+v, want %+v", *snap, wantSnap)
				}
			}
		})
		t.Run(tc.name+"/new writer, old reader", func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{})
			// Entries a compaction covers, the snapshot, then the log.
			for i := 0; tc.snap != nil && i < 3; i++ {
				if err := s.Append(&Entry{T: 0, Op: OpYield, Job: 1, Yields: i + 1}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.snap != nil {
				if err := s.Compact(*tc.snap); err != nil {
					t.Fatal(err)
				}
			}
			want := append([]Entry(nil), tc.wal...)
			for i := range want {
				if err := s.Append(&want[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, snapName))
			if tc.snap == nil {
				if !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("a snapshot appeared: %v", err)
				}
			} else {
				var snap Snapshot
				if err != nil || json.Unmarshal(data, &snap) != nil {
					t.Fatalf("snapshot unreadable by encoding/json: %q, %v", data, err)
				}
				wantSnap := *tc.snap
				wantSnap.Seq = 3
				if !reflect.DeepEqual(snap, wantSnap) {
					t.Fatalf("encoding/json read snapshot %+v, want %+v", snap, wantSnap)
				}
			}
			log, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			var got []Entry
			for len(log) > 0 {
				n := binary.BigEndian.Uint32(log)
				payload := log[headerSize : headerSize+n]
				var e Entry
				if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(log[4:]) || json.Unmarshal(payload, &e) != nil {
					t.Fatalf("record unreadable by the old reader: %q", payload)
				}
				got, log = append(got, e), log[headerSize+n:]
			}
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("old reader decoded %+v, want %+v", got, want)
			}
		})
	}
}

// memFS is a journal directory in memory: what the store writes stays in
// preallocated buffers, so a test can count the store's own allocations.
type memFS struct{ files map[string]*memFile }

type memFile struct{ data []byte }

func (m *memFS) MkdirAll(string, fs.FileMode) error { return nil }
func (m *memFS) SyncDir(string) error               { return nil }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	if f, ok := m.files[path]; ok {
		return append([]byte(nil), f.data...), nil
	}
	return nil, fs.ErrNotExist
}

func (m *memFS) OpenFile(path string, flag int, _ fs.FileMode) (File, error) {
	f, ok := m.files[path]
	if !ok {
		f = &memFile{data: make([]byte, 0, 1<<20)}
		m.files[path] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = f.data[:0]
	}
	return f, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.files[newpath] = m.files[oldpath]
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Truncate(path string, size int64) error { return m.files[path].Truncate(size) }

func (f *memFile) Write(p []byte) (int, error) { f.data = append(f.data, p...); return len(p), nil }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Close() error                { return nil }
func (f *memFile) Truncate(size int64) error   { f.data = f.data[:size]; return nil }

// TestStoreAppendTransitionWithoutAllocating: journaling a hold and a start
// — six of a pair's eight records are transitions like these — through
// Store.Append costs no heap allocation: the record is encoded in place in
// the store's buffer.
func TestStoreAppendTransitionWithoutAllocating(t *testing.T) {
	mem := &memFS{files: map[string]*memFile{}}
	s := openStore(t, "mem", Options{FS: mem})
	hold := Entry{T: 86400, Op: OpHold, Job: 4242, HoldStart: 86400, Holds: 1, Ready: true, ReadyAt: 86400}
	start := Entry{T: 86460, Op: OpStart, Job: 4242, Start: 86460, Ready: true, ReadyAt: 86400, Holds: 1, HeldNS: 480}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Append(&hold); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(&start); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("appending a hold and a start allocates %v times, want 0", allocs)
	}
	entries, _, torn := DecodeEntries(mem.files[filepath.Join("mem", walName)].data)
	if torn != nil || len(entries) != 402 || entries[401].Op != OpStart || entries[401].HeldNS != 480 {
		t.Fatalf("the log holds %d entries (torn %v), want the 402 appended", len(entries), torn)
	}
}
