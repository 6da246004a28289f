package faultplan_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cosched/internal/faultplan"
	"cosched/internal/journal"
	"cosched/internal/proto"
)

// TestPlanDeterministic is the engine's core contract: New is a pure
// function of the seed, so any campaign replays bit-identically from its
// seed alone.
func TestPlanDeterministic(t *testing.T) {
	encodings := map[string]bool{}
	for seed := uint64(1); seed <= 100; seed++ {
		a := faultplan.New(seed).Encode()
		b := faultplan.New(seed).Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, a, b)
		}
		encodings[string(a)] = true
	}
	// Seeds must actually spread: near-identical schedules would make the
	// campaign a single test run in disguise.
	if len(encodings) < 95 {
		t.Fatalf("only %d distinct plans across 100 seeds", len(encodings))
	}
}

// TestPlanJournalScheduleIsPinned: the journal seam draws from a stream of
// its own, so a change to what the peer seam draws must leave every seed's
// journal schedule alone. The digest covers the journal faults of seeds
// 1–100 and was recorded when the peer seam still drew drops and latency
// ramps.
func TestPlanJournalScheduleIsPinned(t *testing.T) {
	const want = "5c1a80510e5365f0b77c4cf053d5328a581729bc9fdda055aa97f12c5de9f1c7"
	h := sha256.New()
	for seed := uint64(1); seed <= 100; seed++ {
		b, err := json.Marshal(faultplan.New(seed).ForSeam(faultplan.SeamJournal))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("journal schedules of seeds 1–100 digest to %s, want %s", got, want)
	}
}

func TestPlanReproNamesSeed(t *testing.T) {
	p := faultplan.New(77)
	if want := "TestRunCampaign/seed=77"; !strings.Contains(p.Repro(), want) {
		t.Fatalf("Repro() = %q, want it to contain %q", p.Repro(), want)
	}
}

// TestFaultFSReplaysJournalSchedule drives a hand-built plan through a
// FaultFS on the real disk and checks each fault lands on its exact op
// index with its exact failure mode.
func TestFaultFSReplaysJournalSchedule(t *testing.T) {
	plan := &faultplan.Plan{Seed: 1, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindShortWrite, At: 1, Arg: 3},
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindDiskFull, At: 2},
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindFsyncEIO, At: 1},
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindRenameEIO, At: 0},
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindWriteEIO, At: 3},
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindTornTail, At: 4},
	}}
	ffs := faultplan.NewFaultFS(plan, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")

	// Write 0: clean.
	if n, err := f.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write 0 = (%d, %v), want clean", n, err)
	}
	// Write 1: short — 3 bytes land, io.ErrShortWrite reported.
	if n, err := f.Write(payload); !errors.Is(err, io.ErrShortWrite) || n != 3 {
		t.Fatalf("write 1 = (%d, %v), want (3, ErrShortWrite)", n, err)
	}
	// Write 2: disk full, nothing lands.
	if _, err := f.Write(payload); !journal.IsDiskFull(err) {
		t.Fatalf("write 2 = %v, want ENOSPC", err)
	}
	// Sync 0: clean; sync 1: EIO.
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 0 = %v, want clean", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 1 = %v, want EIO", err)
	}
	// Rename 0: EIO, file untouched.
	if err := ffs.Rename(path, path+".new"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename 0 = %v, want EIO", err)
	}
	// Write 3: EIO, nothing lands.
	if n, err := f.Write(payload); !errors.Is(err, syscall.EIO) || n != 0 {
		t.Fatalf("write 3 = (%d, %v), want (0, EIO)", n, err)
	}
	// Write 4: torn tail — reports full success, half lands, then the
	// process is notionally dead.
	if n, err := f.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write 4 = (%d, %v), want silent success", n, err)
	}
	if !ffs.Crashed() {
		t.Fatal("torn tail did not crash the FS")
	}
	for name, op := range map[string]func() error{
		"Write":    func() error { _, err := f.Write(payload); return err },
		"Sync":     func() error { return f.Sync() },
		"ReadFile": func() error { _, err := ffs.ReadFile(path); return err },
		"Rename":   func() error { return ffs.Rename(path, path+".x") },
		"OpenFile": func() error { _, err := ffs.OpenFile(path, os.O_RDONLY, 0); return err },
	} {
		if err := op(); !errors.Is(err, faultplan.ErrCrashed) {
			t.Fatalf("%s after crash = %v, want ErrCrashed", name, err)
		}
	}
	if err := f.Close(); err != nil { // close models the kernel reaping fds
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 10 (clean) + 3 (short) + 0 (enospc) + 0 (EIO) + 5 (torn half of 10).
	if len(data) != 18 {
		t.Fatalf("on-disk bytes = %d, want 18", len(data))
	}
	if fired := ffs.Fired(); len(fired) != 6 {
		t.Fatalf("fired = %v, want all 6 faults", fired)
	}
}

// TestFaultFSPoisonsStore wires a FaultFS under a real journal.Store: the
// injected fsync failure must latch the store exactly as a real disk
// fault would.
func TestFaultFSPoisonsStore(t *testing.T) {
	plan := &faultplan.Plan{Seed: 2, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindFsyncEIO, At: 2},
	}}
	ffs := faultplan.NewFaultFS(plan, nil)
	s, err := journal.Open(t.TempDir(), journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var appendErr error
	for i := 0; i < 5; i++ {
		if appendErr = s.Append(&journal.Entry{Op: journal.OpHold, Job: 1}); appendErr != nil {
			break
		}
	}
	if !errors.Is(appendErr, syscall.EIO) {
		t.Fatalf("append run = %v, want the injected EIO", appendErr)
	}
	if s.Poisoned() == nil {
		t.Fatal("store not poisoned by injected fsync failure")
	}
	if len(ffs.Fired()) != 1 {
		t.Fatalf("fired = %v, want exactly the scheduled fsync fault", ffs.Fired())
	}
}

// countingExchanger answers every request and counts the deliveries.
type countingExchanger struct{ delivered int }

func (c *countingExchanger) PeerName() string { return "counted" }

func (c *countingExchanger) Exchange(proto.Request) (proto.Response, error) {
	c.delivered++
	return proto.Response{}, nil
}

// TestPeerScriptReplaysDirectives runs one direction's script through a
// FaultInjector, call by call: the duplicate reaches the peer twice, a call
// inside the partition window fails with ErrInjected without reaching it,
// a duplicate scheduled inside the window is not delivered, and the other
// direction's faults do not leak in. Fired lists exactly what was
// performed.
func TestPeerScriptReplaysDirectives(t *testing.T) {
	dup := faultplan.Fault{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDup, Dir: 0, At: 3}
	part := faultplan.Fault{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindPartition, Dir: 0, At: 10, Len: 3}
	plan := &faultplan.Plan{Seed: 3, Faults: []faultplan.Fault{
		dup, part,
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDup, Dir: 0, At: 11},
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDup, Dir: 1, At: 0},
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindPartition, Dir: 1, At: 1, Len: 5},
	}}
	s := faultplan.NewPeerScript(plan, 0)
	peer := &countingExchanger{}
	inj := proto.NewFaultInjector(peer, s, nil)
	for i := 0; i < 15; i++ {
		before := peer.delivered
		_, err := inj.Exchange(proto.Request{Method: proto.MethodPing})
		delivered := peer.delivered - before
		switch {
		case i >= 10 && i < 13:
			if !errors.Is(err, proto.ErrInjected) || delivered != 0 {
				t.Fatalf("call %d in the partition: err = %v, delivered %d time(s); want ErrInjected, 0", i, err, delivered)
			}
		case i == 3:
			if err != nil || delivered != 2 {
				t.Fatalf("duplicated call %d: err = %v, delivered %d time(s); want nil, 2", i, err, delivered)
			}
		default:
			if err != nil || delivered != 1 {
				t.Fatalf("call %d: err = %v, delivered %d time(s); want nil, 1", i, err, delivered)
			}
		}
	}
	if inj.Duplicated() != 1 || inj.Failed() != 3 {
		t.Fatalf("injector duplicated %d, failed %d; want 1, 3", inj.Duplicated(), inj.Failed())
	}
	if got, want := fmt.Sprint(s.Fired()), fmt.Sprint([]faultplan.Fault{dup, part}); got != want {
		t.Fatalf("fired = %s, want %s", got, want)
	}
}
