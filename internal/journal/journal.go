// Package journal is the durability layer under the live coscheduling
// daemon: an append-only, checksummed, fsync-batched write-ahead log of
// every resource-manager state transition, plus periodic compacting
// snapshots, plus the replay/restore machinery that rebuilds a Manager's
// queue, holding set, and running set after a crash.
//
// On disk a journal directory holds two files:
//
//	snapshot.json — the full job table as of sequence number Seq,
//	                written atomically (tmp + rename);
//	journal.wal   — framed transition records appended since that
//	                snapshot: [u32 length][u32 CRC-32 (IEEE)][JSON entry].
//
// Both are JSON as encoding/json defines it — json.Marshal of a Snapshot,
// json.Marshal of an Entry — and both are normally written and read without
// it: AppendRecord (under Store.Append) and Store.Compact write through the
// encoders in codec.go, DecodeEntries and Open read through its strict
// parsers, all built from internal/wirejson under the rule stated there.
// An entry or snapshot an encoder cannot write verbatim (a job name that
// needs an escape) is written by json.Marshal, and a payload outside the
// canonical shape (written by another tool, or by hand) is read by
// json.Unmarshal, so a journal directory means the same to a daemon with
// the codec and to one without.
//
// The reader is torn-write tolerant by construction: a crash mid-append
// leaves a partial record (or a record whose checksum fails) at the tail,
// and DecodeEntries truncates to the last valid record instead of failing.
// A record is valid only if its length is in bounds, its checksum matches,
// its JSON decodes, and its sequence number strictly increases — so a
// corrupt record is never replayed, and garbage after a crash cannot
// resurrect stale state.
//
// Replay is pure bookkeeping (no engine, no pool): it folds the snapshot
// and the entry tail into per-job final states, using the job package's
// lifecycle state machine so an impossible history (a double start, a
// completed job re-queued) fails loudly instead of reconstructing silently
// wrong state. Restore then re-installs the jobs into a fresh
// resmgr.Manager via RestoreJob, which re-acquires allocations and
// reschedules completions.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"cosched/internal/job"
	"cosched/internal/sim"
)

// Op identifies a journaled manager transition.
type Op string

// The journaled transition set. OpPeerDecision is audit-only: the state
// effects of an inbound peer start are journaled as the resulting
// start/hold transitions, so replay skips decision records.
const (
	OpExpect       Op = "expect"
	OpSubmit       Op = "submit"
	OpStart        Op = "start"
	OpHold         Op = "hold"
	OpRehold       Op = "rehold"
	OpYield        Op = "yield"
	OpRelease      Op = "release"
	OpComplete     Op = "complete"
	OpCancel       Op = "cancel"
	OpPeerDecision Op = "peer-decision"
)

// Entry is one write-ahead log record. Submission records (expect/submit)
// carry the full job description so replay can rebuild jobs the snapshot
// never saw; transition records carry the post-transition values of the
// mutable fields they change (counters are absolute, not deltas, so replay
// is idempotent per record).
type Entry struct {
	Seq uint64   `json:"seq"`
	T   sim.Time `json:"t"`
	Op  Op       `json:"op"`
	Job job.ID   `json:"job,omitempty"`

	// Job description (expect/submit).
	Name     string        `json:"name,omitempty"`
	User     int           `json:"user,omitempty"`
	Nodes    int           `json:"nodes,omitempty"`
	Runtime  sim.Duration  `json:"runtime,omitempty"`
	Walltime sim.Duration  `json:"walltime,omitempty"`
	Submit   sim.Time      `json:"submit,omitempty"`
	Mates    []job.MateRef `json:"mates,omitempty"`

	// Start instant (start): the agreed co-start time, which may differ
	// from T by wall-clock jitter when a remote resolver proposed it.
	Start sim.Time `json:"start,omitempty"`

	// Readiness (start/hold/yield): the job's first-ready bookkeeping,
	// which feeds the paper's sync-time metric.
	Ready   bool     `json:"ready,omitempty"`
	ReadyAt sim.Time `json:"ready_at,omitempty"`

	// Accounting snapshots (absolute values as of this record).
	Yields    int      `json:"yields,omitempty"`
	Holds     int      `json:"holds,omitempty"`
	HeldNS    int64    `json:"held_ns,omitempty"`
	HoldStart sim.Time `json:"hold_start,omitempty"`

	// Peer-decision audit (peer-decision).
	Method string `json:"method,omitempty"`
	OK     bool   `json:"ok,omitempty"`
}

// headerSize is the per-record framing overhead: u32 payload length +
// u32 CRC-32 (IEEE) of the payload, both big-endian.
const headerSize = 8

// MaxRecordSize bounds one record's JSON payload. A claimed length beyond
// it marks the tail corrupt before any allocation happens.
const MaxRecordSize = 1 << 20

// AppendRecord appends the framed encoding of e to buf and returns the
// extended slice (append-style, so writers can reuse one buffer): the
// payload is written in place behind room left for its header.
func AppendRecord(buf []byte, e *Entry) ([]byte, error) {
	start := len(buf) + headerSize
	out, ok := appendEntry(append(buf, make([]byte, headerSize)...), e)
	if !ok {
		slow := *e // a copy, so that only an entry encoding/json has to write moves to the heap
		payload, err := json.Marshal(&slow)
		if err != nil {
			return buf, fmt.Errorf("journal: marshal entry %d: %w", e.Seq, err)
		}
		out = append(out[:start], payload...)
	}
	payload := out[start:]
	if len(payload) > MaxRecordSize {
		return buf, fmt.Errorf("journal: entry %d exceeds MaxRecordSize", e.Seq)
	}
	binary.BigEndian.PutUint32(out[start-headerSize:], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[start-4:], crc32.ChecksumIEEE(payload))
	return out, nil
}

// TornTail reports where and why decoding stopped before the end of the
// input. It is informational, not fatal: the entries before Off are valid
// and the caller truncates the log to Off.
type TornTail struct {
	Off    int64  // byte offset of the first invalid record
	Reason string // what check failed there
}

// Error implements error.
func (t *TornTail) Error() string {
	return fmt.Sprintf("journal: torn tail at byte %d: %s", t.Off, t.Reason)
}

// decodeEntry decodes one record's payload: through the strict parser, and
// through json.Unmarshal if that refuses it.
func decodeEntry(payload []byte) (Entry, error) {
	var e Entry
	if parseEntry(payload, &e) {
		return e, nil
	}
	return unmarshalEntry(payload)
}

// unmarshalEntry is a function of its own so that only the entries
// encoding/json has to read are decoded on the heap.
func unmarshalEntry(payload []byte) (e Entry, err error) {
	err = json.Unmarshal(payload, &e)
	return e, err
}

// DecodeEntries decodes the longest valid prefix of a write-ahead log. It
// returns the decoded entries, the byte length of that valid prefix, and a
// *TornTail describing the first invalid record (nil when the whole input
// decoded cleanly). It never panics on any input, and never returns a
// record that failed its length, checksum, JSON, or sequence check —
// sequence numbers must be strictly increasing and nonzero, so duplicated
// or reordered tails are cut rather than replayed.
func DecodeEntries(data []byte) ([]Entry, int64, *TornTail) {
	var out []Entry
	var off int64
	var lastSeq uint64
	for int64(len(data))-off >= headerSize {
		n := binary.BigEndian.Uint32(data[off : off+4])
		if n == 0 || n > MaxRecordSize {
			return out, off, &TornTail{Off: off, Reason: fmt.Sprintf("implausible record length %d", n)}
		}
		end := off + headerSize + int64(n)
		if end > int64(len(data)) {
			return out, off, &TornTail{Off: off, Reason: "partial record (torn write)"}
		}
		payload := data[off+headerSize : end]
		if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[off+4:off+8]) {
			return out, off, &TornTail{Off: off, Reason: "checksum mismatch"}
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return out, off, &TornTail{Off: off, Reason: "undecodable payload: " + err.Error()}
		}
		if e.Seq <= lastSeq {
			return out, off, &TornTail{Off: off, Reason: fmt.Sprintf("sequence %d after %d", e.Seq, lastSeq)}
		}
		out = append(out, e)
		lastSeq = e.Seq
		off = end
	}
	if off < int64(len(data)) {
		return out, off, &TornTail{Off: off, Reason: "partial header (torn write)"}
	}
	return out, off, nil
}
