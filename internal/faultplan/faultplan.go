// Package faultplan is the deterministic fault-campaign engine: it
// composes fault schedules — what fails, when, and for how long — from a
// seed and replays them bit-identically. One Plan drives two seams at
// once:
//
//   - the journal's filesystem (FaultFS): short writes, EIO on
//     append/fsync/rename, disk-full, and torn final frames;
//   - the peer wire (PeerScript, the proto.CallScript a
//     proto.FaultInjector applies): one-way partitions and duplicated
//     delivery, plus whole-server restarts.
//
// RunCampaign drives one coupled simulation under a Plan and gates the
// robustness invariants; TestRunCampaign loops it over seeds 1–25.
//
// Determinism is the contract: New(seed) is a pure function, so any
// failing campaign is reproducible from its seed alone (Plan.Repro prints
// the one-line command). Schedules are op-indexed, not wall-clock indexed
// — the Nth write fails, not the write nearest some instant — so a replay
// under different goroutine interleavings still injects the exact same
// faults.
package faultplan

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"cosched/internal/workload"
)

// Seam names the subsystem a fault targets. RunCampaign keys its fired-
// fault totals by it.
type Seam string

const (
	SeamJournal  Seam = "journal"
	SeamPeerlink Seam = "peerlink"
)

// Kind is a fault class. The comment on each constant states the unit of
// Fault.At for that kind.
type Kind string

const (
	// Journal seam: At counts WAL/snapshot file operations of the matching
	// type (write, fsync, rename) since the FaultFS was built.

	// KindShortWrite truncates the At-th write to Arg bytes and reports
	// io.ErrShortWrite.
	KindShortWrite Kind = "short-write"
	// KindWriteEIO fails the At-th write outright with EIO.
	KindWriteEIO Kind = "write-eio"
	// KindFsyncEIO fails the At-th fsync with EIO (the fsyncgate fault:
	// the store must poison itself, never retry).
	KindFsyncEIO Kind = "fsync-eio"
	// KindRenameEIO fails the At-th rename with EIO.
	KindRenameEIO Kind = "rename-eio"
	// KindDiskFull fails the At-th write with ENOSPC.
	KindDiskFull Kind = "disk-full"
	// KindTornTail writes only half of the At-th write, reports success,
	// and then fails every later operation — a crash that tears the final
	// frame on disk.
	KindTornTail Kind = "torn-tail"

	// Peerlink seam: At counts intercepted calls on one direction's
	// injector (Dir selects the direction), except KindRestart.

	// KindDup delivers the At-th call twice; the duplicate's response is
	// discarded, modeling at-least-once delivery.
	KindDup Kind = "duplicate"
	// KindPartition fails calls At..At+Len-1 outright on this direction
	// only — a one-way partition. Partition errors surface to Algorithm 1
	// as "status unknown", so the paper's fault-tolerance fallback (start
	// normally) legitimately fires.
	KindPartition Kind = "one-way-partition"
	// KindRestart restarts every peer server at virtual second At.
	KindRestart Kind = "server-restart"
)

// Fault is one scheduled injection.
type Fault struct {
	Seam Seam `json:"seam"`
	Kind Kind `json:"kind"`
	// Dir selects the peer direction (link) for peerlink faults; 0
	// elsewhere.
	Dir int `json:"dir,omitempty"`
	// At is the op index the fault fires at; units per Kind.
	At int `json:"at"`
	// Len is the window length in ops for windowed kinds.
	Len int `json:"len,omitempty"`
	// Arg is the bytes a short write leaves.
	Arg int64 `json:"arg,omitempty"`
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s/%s@%d", f.Seam, f.Kind, f.At)
	if f.Seam == SeamPeerlink && f.Kind != KindRestart {
		s = fmt.Sprintf("%s/%s[dir%d]@%d", f.Seam, f.Kind, f.Dir, f.At)
	}
	if f.Len > 0 {
		s += fmt.Sprintf("+%d", f.Len)
	}
	if f.Arg > 0 {
		s += fmt.Sprintf("(%d)", f.Arg)
	}
	return s
}

// Plan is one campaign's full fault schedule, a pure function of Seed.
type Plan struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
}

// The campaign shape New draws. Journal faults scatter over the first
// journalWrites writes, 0..journalFaultMax of them uniformly, so some
// campaigns leave the journal untouched — the "surviving" runs that gate
// full recovery equality. Each of the peerDirections call streams gets
// 0..dupsMax duplicates over its first peerCalls calls and, with
// probability partitionChance, one one-way partition up to
// partitionLenMax calls long. 0..restartsMax server restarts fall in
// [1, restartSpanSec] virtual seconds.
const (
	journalWrites   = 400
	journalFaultMax = 2
	peerDirections  = 2
	peerCalls       = 2000
	dupsMax         = 20
	partitionChance = 0.35
	partitionLenMax = 250
	restartsMax     = 2
	restartSpanSec  = 4 * 3600
)

// New derives the campaign schedule for seed. It is a pure function: the
// same seed always yields the same Plan, which is what makes every
// campaign replayable from its one-line repro command.
func New(seed uint64) *Plan {
	plan := &Plan{Seed: seed}
	add := func(f Fault) { plan.Faults = append(plan.Faults, f) }

	js := derive(seed, "journal")
	jKinds := []Kind{KindShortWrite, KindWriteEIO, KindFsyncEIO, KindRenameEIO, KindDiskFull, KindTornTail}
	for i, n := 0, js.Intn(journalFaultMax+1); i < n; i++ {
		k := jKinds[js.Intn(len(jKinds))]
		f := Fault{Seam: SeamJournal, Kind: k, At: js.Intn(journalWrites)}
		switch k {
		case KindShortWrite:
			f.Arg = int64(1 + js.Intn(7)) // leave 1..7 bytes: inside the frame header or the payload
		case KindFsyncEIO:
			// Fsyncs are about as frequent as writes (interval 0 in the
			// campaign); reuse the write horizon.
		case KindRenameEIO:
			f.At = js.Intn(4) // renames are rare (one per compact)
		}
		add(f)
	}

	ps := derive(seed, "peerlink")
	for dir := 0; dir < peerDirections; dir++ {
		for i, n := 0, ps.Intn(dupsMax+1); i < n; i++ {
			add(Fault{Seam: SeamPeerlink, Kind: KindDup, Dir: dir, At: ps.Intn(peerCalls)})
		}
		if ps.Float64() < partitionChance {
			add(Fault{
				Seam: SeamPeerlink, Kind: KindPartition, Dir: dir,
				At:  ps.Intn(peerCalls),
				Len: 1 + ps.Intn(partitionLenMax),
			})
		}
	}
	for i, n := 0, ps.Intn(restartsMax+1); i < n; i++ {
		add(Fault{Seam: SeamPeerlink, Kind: KindRestart, At: 1 + ps.Intn(restartSpanSec)})
	}

	sort.SliceStable(plan.Faults, func(a, b int) bool {
		x, y := plan.Faults[a], plan.Faults[b]
		if x.Seam != y.Seam {
			return x.Seam < y.Seam
		}
		if x.Dir != y.Dir {
			return x.Dir < y.Dir
		}
		if x.At != y.At {
			return x.At < y.At
		}
		return x.Kind < y.Kind
	})
	return plan
}

// ForSeam returns the plan's faults for one seam, in schedule order.
func (p *Plan) ForSeam(s Seam) []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Seam == s {
			out = append(out, f)
		}
	}
	return out
}

// Peer returns the peerlink faults for one direction (KindRestart faults,
// which are direction-less, are excluded).
func (p *Plan) Peer(dir int) []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Seam == SeamPeerlink && f.Kind != KindRestart && f.Dir == dir {
			out = append(out, f)
		}
	}
	return out
}

// Restarts returns the scheduled server-restart instants in virtual
// seconds, ascending.
func (p *Plan) Restarts() []int {
	var out []int
	for _, f := range p.Faults {
		if f.Kind == KindRestart {
			out = append(out, f.At)
		}
	}
	sort.Ints(out)
	return out
}

// Encode renders the plan canonically; two plans are bit-identical iff
// their encodings are equal. Campaigns gate on this to prove replay.
func (p *Plan) Encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("faultplan: encode: %v", err)) // no unmarshalable types in Plan
	}
	return b
}

func (p *Plan) String() string {
	if len(p.Faults) == 0 {
		return fmt.Sprintf("seed %d: no faults", p.Seed)
	}
	s := fmt.Sprintf("seed %d: %d faults:", p.Seed, len(p.Faults))
	for _, f := range p.Faults {
		s += " " + f.String()
	}
	return s
}

// Repro is the one-line command that replays exactly this campaign.
func (p *Plan) Repro() string {
	return fmt.Sprintf("go test ./internal/faultplan -run 'TestRunCampaign/seed=%d'", p.Seed)
}

// derive returns seed's stream for one seam: the seed's first draw folded
// with the label's FNV-1a hash, so each seam draws from a stream of its own
// and one seam's draw count never shifts another's schedule.
func derive(seed uint64, label string) *workload.RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	return workload.NewRNG(workload.NewRNG(seed).Uint64() ^ h.Sum64())
}
