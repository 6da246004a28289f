// Package faultplan is the deterministic fault-campaign engine: it
// composes fault schedules — what fails, when, and for how long — from a
// single seeded splitmix64 stream and replays them bit-identically. One
// Plan drives two seams at once:
//
//   - the journal's filesystem (FaultFS): short writes, EIO on
//     append/fsync/rename, disk-full, and torn final frames;
//   - the peer wire (PeerScript, consumed by proto.FaultInjector): one-way
//     partitions, slow-link latency ramps, duplicated delivery, connection
//     drops, and whole-server restarts.
//
// RunCampaign drives one coupled simulation under a Plan and gates the
// robustness invariants; TestRunCampaign loops it over seeds 1–25.
//
// Determinism is the contract: New(seed, profile) is a pure function, so
// any failing campaign is reproducible from its seed alone (Plan.Repro
// prints the one-line command). Schedules are op-indexed, not wall-clock
// indexed — the Nth write fails, not the write nearest some instant — so a
// replay under different goroutine interleavings still injects the exact
// same faults.
package faultplan

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
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

	// KindDrop cuts the connection under the At-th call, through the
	// injector's dropper. RunCampaign's peers have no connection and its
	// injectors no dropper, so there a drop is scheduled and not performed.
	KindDrop Kind = "drop"
	// KindDup delivers the At-th call twice; the duplicate's response is
	// discarded, modeling at-least-once delivery.
	KindDup Kind = "duplicate"
	// KindLatencyRamp delays calls At..At+Len-1, ramping linearly from 0
	// up to Arg microseconds — a link going slowly bad.
	KindLatencyRamp Kind = "latency-ramp"
	// KindPartition fails calls At..At+Len-1 outright on this direction
	// only — a one-way partition. Unlike drops and latency, partition
	// errors surface to Algorithm 1 as "status unknown", so the paper's
	// fault-tolerance fallback (start normally) legitimately fires.
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
	// Arg is the kind-specific magnitude (bytes for short writes,
	// microseconds for latency ramps).
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

// Plan is one campaign's full fault schedule, a pure function of
// (Seed, Profile).
type Plan struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Profile bounds what New may schedule. The zero value is not useful;
// start from DefaultProfile.
type Profile struct {
	// JournalWrites is the write-op horizon journal faults scatter over;
	// JournalFaultMax bounds how many journal faults one campaign draws
	// (0..max uniformly, so some campaigns leave the journal untouched —
	// those are the "surviving" runs that gate full recovery equality).
	JournalWrites   int
	JournalFaultMax int

	// PeerDirections is how many independent call streams (links) the
	// campaign drives; PeerCalls is the per-direction call horizon.
	PeerDirections int
	PeerCalls      int
	// DropsMax / DupsMax bound the per-direction single-call faults.
	DropsMax int
	DupsMax  int
	// RampsMax latency ramps per direction, each up to RampLenMax calls
	// long and RampMaxMicros microseconds at the top of the ramp.
	RampsMax      int
	RampLenMax    int
	RampMaxMicros int64
	// PartitionChance is the per-direction probability of one one-way
	// partition window of up to PartitionLenMax calls.
	PartitionChance float64
	PartitionLenMax int
	// RestartsMax server-restart instants, drawn in [1, RestartSpanSec].
	RestartsMax    int
	RestartSpanSec int
}

// DefaultProfile is the campaign shape the chaos gate runs.
func DefaultProfile() Profile {
	return Profile{
		JournalWrites:   400,
		JournalFaultMax: 2,
		PeerDirections:  2,
		PeerCalls:       2000,
		DropsMax:        30,
		DupsMax:         20,
		RampsMax:        2,
		RampLenMax:      200,
		RampMaxMicros:   150,
		PartitionChance: 0.35,
		PartitionLenMax: 250,
		RestartsMax:     2,
		RestartSpanSec:  4 * 3600,
	}
}

// New derives the campaign schedule for seed under p. It is a pure
// function: the same (seed, p) always yields the same Plan, which is what
// makes every campaign replayable from its one-line repro command.
func New(seed uint64, p Profile) *Plan {
	plan := &Plan{Seed: seed}
	add := func(f Fault) { plan.Faults = append(plan.Faults, f) }

	// Each seam draws from its own derived stream, so one seam's draw
	// count never shifts another seam's schedule.
	js := NewStream(seed).Derive("journal")
	jKinds := []Kind{KindShortWrite, KindWriteEIO, KindFsyncEIO, KindRenameEIO, KindDiskFull, KindTornTail}
	for i, n := 0, js.Intn(p.JournalFaultMax+1); i < n; i++ {
		k := jKinds[js.Intn(len(jKinds))]
		f := Fault{Seam: SeamJournal, Kind: k, At: js.Intn(p.JournalWrites)}
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

	ps := NewStream(seed).Derive("peerlink")
	for dir := 0; dir < p.PeerDirections; dir++ {
		for i, n := 0, ps.Intn(p.DropsMax+1); i < n; i++ {
			add(Fault{Seam: SeamPeerlink, Kind: KindDrop, Dir: dir, At: ps.Intn(p.PeerCalls)})
		}
		for i, n := 0, ps.Intn(p.DupsMax+1); i < n; i++ {
			add(Fault{Seam: SeamPeerlink, Kind: KindDup, Dir: dir, At: ps.Intn(p.PeerCalls)})
		}
		for i, n := 0, ps.Intn(p.RampsMax+1); i < n; i++ {
			add(Fault{
				Seam: SeamPeerlink, Kind: KindLatencyRamp, Dir: dir,
				At:  ps.Intn(p.PeerCalls),
				Len: 1 + ps.Intn(p.RampLenMax),
				Arg: 1 + int64(ps.Intn(int(p.RampMaxMicros))),
			})
		}
		if ps.Float64() < p.PartitionChance {
			add(Fault{
				Seam: SeamPeerlink, Kind: KindPartition, Dir: dir,
				At:  ps.Intn(p.PeerCalls),
				Len: 1 + ps.Intn(p.PartitionLenMax),
			})
		}
	}
	for i, n := 0, ps.Intn(p.RestartsMax+1); i < n; i++ {
		add(Fault{Seam: SeamPeerlink, Kind: KindRestart, At: 1 + ps.Intn(p.RestartSpanSec)})
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

// Seam returns the plan's faults for one seam, in schedule order.
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

// Stream is a splitmix64 PRNG — the same generator the workload and
// fault-injector layers use, kept local so the plan layer has no
// dependencies.
type Stream struct{ state uint64 }

// NewStream returns a stream seeded with seed.
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Next returns the next 64 uniform bits.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). n <= 0 returns 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Next() % uint64(n))
}

// Derive returns a child stream whose state folds the label into the
// parent's next draw, so differently-labeled children are independent and
// one child's draw count never shifts a sibling's sequence. Derivation
// order from one parent matters only if the same parent is also used for
// draws; the plan generator derives all children from fresh parents.
func (s *Stream) Derive(label string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return NewStream(s.Next() ^ h.Sum64())
}
