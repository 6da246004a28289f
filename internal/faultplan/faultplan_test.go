package faultplan_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cosched/internal/faultplan"
	"cosched/internal/journal"
)

// TestPlanDeterministic is the engine's core contract: New is a pure
// function of (seed, profile), so any campaign replays bit-identically
// from its seed alone.
func TestPlanDeterministic(t *testing.T) {
	prof := faultplan.DefaultProfile()
	encodings := map[string]bool{}
	for seed := uint64(1); seed <= 100; seed++ {
		a := faultplan.New(seed, prof).Encode()
		b := faultplan.New(seed, prof).Encode()
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

// TestPlanSeamsAreIndependent: one seam's draws never shift another's.
// Zeroing out the journal seam (JournalFaultMax=0) must leave the peerlink
// schedule untouched.
func TestPlanSeamsAreIndependent(t *testing.T) {
	prof := faultplan.DefaultProfile()
	noJournal := prof
	noJournal.JournalFaultMax = 0
	for seed := uint64(1); seed <= 50; seed++ {
		full := faultplan.New(seed, prof)
		slim := faultplan.New(seed, noJournal)
		a := fmt.Sprint(full.ForSeam(faultplan.SeamPeerlink))
		b := fmt.Sprint(slim.ForSeam(faultplan.SeamPeerlink))
		if a != b {
			t.Fatalf("seed %d: peerlink schedule shifted when the journal seam was disabled:\n%s\n%s", seed, a, b)
		}
	}
}

func TestPlanReproNamesSeed(t *testing.T) {
	p := faultplan.New(77, faultplan.DefaultProfile())
	if want := "TestRunCampaign/seed=77"; !strings.Contains(p.Repro(), want) {
		t.Fatalf("Repro() = %q, want it to contain %q", p.Repro(), want)
	}
}

func TestStreamDeriveIsStableAndIndependent(t *testing.T) {
	a1 := faultplan.NewStream(9).Derive("journal")
	a2 := faultplan.NewStream(9).Derive("journal")
	b := faultplan.NewStream(9).Derive("peerlink")
	same, diff := 0, 0
	for i := 0; i < 64; i++ {
		x := a1.Next()
		if x == a2.Next() {
			same++
		}
		if x != b.Next() {
			diff++
		}
	}
	if same != 64 {
		t.Fatalf("identical derivations agreed on %d/64 draws", same)
	}
	if diff < 60 {
		t.Fatalf("differently-labeled derivations collided on %d/64 draws", 64-diff)
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
		{Seam: faultplan.SeamJournal, Kind: faultplan.KindTornTail, At: 3},
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
	// Write 3: torn tail — reports full success, half lands, then the
	// process is notionally dead.
	if n, err := f.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write 3 = (%d, %v), want silent success", n, err)
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
	// 10 (clean) + 3 (short) + 0 (enospc) + 5 (torn half of 10).
	if len(data) != 18 {
		t.Fatalf("on-disk bytes = %d, want 18", len(data))
	}
	if fired := ffs.Fired(); len(fired) != 5 {
		t.Fatalf("fired = %v, want all 5 faults", fired)
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

// TestPeerScriptReplaysDirectives checks the call-indexed mapping from
// plan faults to injector directives: drops, dups, the linear latency
// ramp, and the partition window. Only the windowed faults count as fired
// by the script; the per-call ones are the injector's to perform.
func TestPeerScriptReplaysDirectives(t *testing.T) {
	plan := &faultplan.Plan{Seed: 3, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDrop, Dir: 0, At: 2},
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDup, Dir: 0, At: 3},
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindLatencyRamp, Dir: 0, At: 5, Len: 4, Arg: 100},
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindPartition, Dir: 0, At: 10, Len: 3},
		// Direction 1 faults must not leak into direction 0's script.
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindDrop, Dir: 1, At: 0},
	}}
	s := faultplan.NewPeerScript(plan, 0)
	for i := 0; i < 15; i++ {
		d := s.NextCall()
		if got, want := d.Drop, i == 2; got != want {
			t.Fatalf("call %d: Drop = %v, want %v", i, got, want)
		}
		if got, want := d.Duplicate, i == 3; got != want {
			t.Fatalf("call %d: Duplicate = %v, want %v", i, got, want)
		}
		if got, want := d.Fail, i >= 10 && i < 13; got != want {
			t.Fatalf("call %d: Fail = %v, want %v", i, got, want)
		}
		inRamp := i >= 5 && i < 9
		if (d.Delay > 0) != inRamp {
			t.Fatalf("call %d: Delay = %v, want ramp=%v", i, d.Delay, inRamp)
		}
		if i == 8 && d.Delay != 100*time.Microsecond {
			t.Fatalf("ramp top delay = %v, want 100µs", d.Delay)
		}
	}
	if fired := s.Fired(); len(fired) != 2 {
		t.Fatalf("fired = %v, want the 2 dir-0 windowed faults, once each", fired)
	}
}
