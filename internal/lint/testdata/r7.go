// R7 fixtures: durability-critical calls — journal mutations, frame
// writes, and (inside the journal's own package scope, which the fixture
// path shares) raw fsync/rename/close — must not have their errors
// discarded. The crash-safe ordering of PR 5 is only a proof if every
// step's failure stops the sequence.
package fixture

import (
	"io"
	"os"

	"cosched/internal/journal"
	"cosched/internal/proto"
)

func discardAppend(s *journal.Store, e *journal.Entry) {
	_ = s.Append(e) // want "R7"
}

func discardFrame(w io.Writer, v any) {
	_ = proto.WriteFrame(w, v) // want "R7"
}

func bareSync(f *os.File) {
	f.Sync() // want "R7"
}

func deferredClose(s *journal.Store) {
	defer s.Close() // want "R7"
}

func renameDropped() {
	_ = os.Rename("wal.tmp", "wal") // want "R7"
}

func truncateDropped(f *os.File) {
	f.Truncate(0) // want "R7"
}

// The VFS seam: journal.FS / journal.File is where fault injection lands,
// so a dropped error here hides exactly the faults a campaign injects.
func vfsSyncDropped(f journal.File) {
	_ = f.Sync() // want "R7"
}

func vfsTruncateDeferred(f journal.File) {
	defer f.Truncate(0) // want "R7"
}

func vfsRenameDropped(fs journal.FS) {
	_ = fs.Rename("wal.tmp", "wal") // want "R7"
}

func vfsSyncDirBare(fs journal.FS) {
	fs.SyncDir("journal") // want "R7"
}

// vfsOpenChecked: FS setup calls (OpenFile et al) are not on the ordering
// path; only the blank error on a durable method is flagged.
func vfsOpenChecked(fs journal.FS) (journal.File, error) {
	return fs.OpenFile("wal", os.O_RDWR, 0o644)
}

// propagated is the sanctioned shape: every durability error reaches the
// caller.
func propagated(s *journal.Store, e *journal.Entry, f *os.File, w io.Writer, v any) error {
	if err := s.Append(e); err != nil {
		return err
	}
	if err := proto.WriteFrame(w, v); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
