package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// On-disk layout inside a journal directory.
const (
	walName     = "journal.wal"
	snapName    = "snapshot.json"
	snapTmpName = "snapshot.json.tmp"
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("journal: store closed")

// ErrPoisoned is returned by every durability operation after a WAL write
// or fsync has failed. The store never retries a failed fsync as if it
// could succeed: the kernel may already have dropped the dirty pages, so a
// later "successful" fsync would report durability for data that never
// reached disk (the fsyncgate failure mode). Once poisoned, the store
// stays poisoned for its lifetime; the owner must degrade loudly (see
// cmd/coschedd's journal-less mode) or crash, never continue as if the
// journal were intact.
var ErrPoisoned = errors.New("journal: store poisoned by storage failure")

// Options configures a Store.
type Options struct {
	// FsyncInterval batches fsyncs: an append syncs only when this much
	// wall time passed since the last sync. 0 syncs after every append —
	// maximal durability, one fsync per transition. Negative is invalid.
	FsyncInterval time.Duration
	// SnapshotEvery is how many appended entries trigger a compacting
	// snapshot (used by the Recorder). 0 takes the default of 1024.
	SnapshotEvery int
	// Now overrides the fsync-batching clock (tests). nil reads the wall
	// clock — batching paces real disk writes, never simulation time.
	Now func() time.Time
	// FS overrides the filesystem (fault-injection harnesses). nil uses
	// the real disk (OSFS).
	FS FS
}

// Store owns one journal directory: the append handle on the write-ahead
// log and the snapshot file. Opening a store performs recovery — the
// snapshot is loaded, the WAL tail is decoded torn-tolerantly, and the
// file is truncated to its last valid record — so a Store is always in a
// consistent appendable state once Open returns. Safe for concurrent use.
type Store struct {
	dir string
	opt Options
	fs  FS

	// Recovery results, stashed at Open for the caller.
	snap    *Snapshot
	entries []Entry
	torn    *TornTail

	mu       sync.Mutex
	f        File
	buf      []byte // the last appended record; reused
	snapBuf  []byte // the last snapshot written; reused
	seq      uint64
	appended uint64 // entries since open/compact; drives snapshot cadence
	dirty    bool   // unsynced bytes in the WAL
	lastSync time.Time
	closed   bool
	poisoned error // first WAL write/fsync failure; sticky for the lifetime

	// Lifetime counters for /metrics: unlike appended, these never reset.
	appends    uint64 // entries written to the WAL since Open
	fsyncs     uint64 // actual fsync(2) calls issued (batching skips count 0)
	fsyncFails uint64 // fsync(2) calls that failed (each one poisons)
	compacts   uint64 // snapshots taken
}

// Open opens (creating if needed) the journal directory and recovers its
// contents: snapshot loaded, WAL decoded, torn tail truncated away. An
// unreadable snapshot is an error — snapshots are written atomically, so
// corruption there means something worse than a crash happened, and
// silently dropping the whole job table would be the one unrecoverable
// "recovery". A torn WAL tail is NOT an error; see Torn.
func Open(dir string, opt Options) (*Store, error) {
	if opt.FsyncInterval < 0 {
		return nil, fmt.Errorf("journal: negative FsyncInterval %v", opt.FsyncInterval)
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 1024
	}
	vfs := opt.FS
	if vfs == nil {
		vfs = OSFS{}
	}
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	s := &Store{dir: dir, opt: opt, fs: vfs}

	if data, err := vfs.ReadFile(filepath.Join(dir, snapName)); err == nil {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", snapName, err)
		}
		s.snap = snap
		s.seq = snap.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}

	walPath := filepath.Join(dir, walName)
	data, err := vfs.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: read wal: %w", err)
	}
	entries, valid, torn := DecodeEntries(data)
	s.entries, s.torn = entries, torn
	if torn != nil {
		if err := vfs.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("journal: truncate torn wal: %w", err)
		}
	}
	if n := len(entries); n > 0 && entries[n-1].Seq > s.seq {
		s.seq = entries[n-1].Seq
	}

	f, err := vfs.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open wal: %w", err)
	}
	s.f = f
	s.lastSync = s.now()
	return s, nil
}

// Recovered returns what Open found: the snapshot (nil if none existed)
// and the valid WAL entries after it.
func (s *Store) Recovered() (*Snapshot, []Entry) { return s.snap, s.entries }

// Torn returns the description of the WAL tail Open truncated away, or nil
// if the log ended cleanly.
func (s *Store) Torn() *TornTail { return s.torn }

// Dir returns the journal directory.
func (s *Store) Dir() string { return s.dir }

// SnapshotEvery returns the (defaulted) snapshot cadence.
func (s *Store) SnapshotEvery() int { return s.opt.SnapshotEvery }

// now reads the fsync-batching clock.
func (s *Store) now() time.Time {
	if s.opt.Now != nil {
		return s.opt.Now()
	}
	//simlint:allow R2 fsync batching paces real disk flushes in the live daemon; tests and simulations inject Options.Now
	return time.Now()
}

// poisonLocked records the first WAL durability failure. Callers hold
// s.mu and return the original error; every later operation returns
// ErrPoisoned wrapping that cause.
func (s *Store) poisonLocked(cause error) {
	if s.poisoned == nil {
		s.poisoned = cause
	}
}

// poisonedErrLocked builds the sticky failure. Both ErrPoisoned and the
// original cause survive errors.Is/As, so callers can still classify the
// root fault (e.g. IsDiskFull) after the store has latched.
func (s *Store) poisonedErrLocked() error {
	return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
}

// Poisoned returns the first WAL write/fsync failure, or nil while the
// store is healthy. Once non-nil it never resets.
func (s *Store) Poisoned() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned == nil {
		return nil
	}
	return s.poisonedErrLocked()
}

// Append assigns the next sequence number to e and appends its framed
// encoding to the WAL, syncing per the fsync-batching policy.
func (s *Store) Append(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return s.poisonedErrLocked()
	}
	e.Seq = s.seq + 1
	buf, err := AppendRecord(s.buf[:0], e)
	if err != nil {
		return err
	}
	s.buf = buf
	if _, err := s.f.Write(buf); err != nil {
		// A failed or short WAL write leaves a partial frame on disk;
		// anything appended after it would sit beyond the tear and be
		// dropped by recovery. Poison rather than write into the void.
		s.poisonLocked(err)
		return fmt.Errorf("journal: append: %w", err)
	}
	s.seq++
	s.appended++
	s.appends++
	s.dirty = true
	if now := s.now(); s.opt.FsyncInterval == 0 || now.Sub(s.lastSync) >= s.opt.FsyncInterval {
		return s.syncLocked(now)
	}
	return nil
}

func (s *Store) syncLocked(now time.Time) error {
	if s.poisoned != nil {
		return s.poisonedErrLocked()
	}
	if !s.dirty {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		// fsyncgate semantics: after a failed fsync the kernel may have
		// discarded the dirty pages, so retrying and succeeding would
		// falsely report durability for lost bytes. Latch the failure;
		// s.dirty intentionally stays true and is never re-flushed.
		s.fsyncFails++
		s.poisonLocked(err)
		return fmt.Errorf("journal: fsync: %w", err)
	}
	s.fsyncs++
	s.dirty = false
	s.lastSync = now
	return nil
}

// Sync flushes any batched appends to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked(s.now())
}

// AppendedSinceCompact returns how many entries were appended since the
// store was opened or last compacted.
func (s *Store) AppendedSinceCompact() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Compact makes snap the new durable checkpoint and truncates the WAL.
// The ordering is the crash-safety argument: the snapshot (stamped with
// the current WAL sequence) is written to a temp file, synced, and renamed
// over the old one, and the rename is made durable with a directory fsync
// — only then is the WAL truncated. A crash before the directory sync
// leaves the old snapshot + full WAL; a crash after it leaves the new
// snapshot + a WAL whose entries are all ≤ Seq and thus skipped. Without
// the directory sync there would be a window where the truncate is on disk
// but the rename is not, which loses the entries the snapshot was supposed
// to cover.
func (s *Store) Compact(snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return s.poisonedErrLocked()
	}
	// The snapshot must cover every durable entry it supersedes.
	if err := s.syncLocked(s.now()); err != nil {
		return err
	}
	snap.Seq = s.seq
	data, err := marshalSnapshot(s.snapBuf[:0], &snap)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	s.snapBuf = data
	tmp := filepath.Join(s.dir, snapTmpName)
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //simlint:allow R7 error-path cleanup: the snapshot write already failed and the tmp file is discarded, so this close's error adds nothing
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //simlint:allow R7 error-path cleanup: the snapshot fsync already failed and the tmp file is discarded, so this close's error adds nothing
		return fmt.Errorf("journal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot close: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("journal: snapshot dir fsync: %w", err)
	}
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: wal truncate: %w", err)
	}
	s.appended = 0
	s.compacts++
	return nil
}

// Stats is a point-in-time view of the store's lifetime counters, exposed
// on the daemon's /metrics endpoint. All fields except Pending are
// monotonically non-decreasing for the life of the Store.
type Stats struct {
	Appends       uint64 // WAL entries appended since Open
	Fsyncs        uint64 // fsync(2) calls actually issued
	FsyncFailures uint64 // fsync(2) calls that failed; any nonzero ⇒ Poisoned
	Compacts      uint64 // compacting snapshots taken
	Pending       uint64 // entries appended since the last compact (resets)
	Seq           uint64 // last assigned sequence number
	Poisoned      bool   // a WAL write or fsync failed; the store is latched
}

// Stats captures the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appends:       s.appends,
		Fsyncs:        s.fsyncs,
		FsyncFailures: s.fsyncFails,
		Compacts:      s.compacts,
		Pending:       s.appended,
		Seq:           s.seq,
		Poisoned:      s.poisoned != nil,
	}
}

// Close syncs and closes the WAL handle. Closing a poisoned store still
// closes the file descriptor but reports the poison, so a drain path
// cannot mistake a degraded journal for a clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked(s.now())
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}
