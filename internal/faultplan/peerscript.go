package faultplan

import (
	"sync"
	"time"

	"cosched/internal/proto"
)

// PeerScript replays one direction's peerlink faults call by call; it
// implements proto.CallScript and plugs into a proto.FaultInjector via
// WithScript. Calls are indexed from 0 in interception order, which under
// a virtual-clock harness is deterministic, so the same plan always hits
// the same calls.
type PeerScript struct {
	mu    sync.Mutex
	n     int
	drops map[int]bool
	dups  map[int]bool
	ramps []Fault // windowed: sorted by At
	parts []Fault // windowed: sorted by At
	fired []Fault
}

// NewPeerScript builds the script for direction dir of plan.
func NewPeerScript(plan *Plan, dir int) *PeerScript {
	s := &PeerScript{drops: map[int]bool{}, dups: map[int]bool{}}
	for _, f := range plan.Peer(dir) {
		switch f.Kind {
		case KindDrop:
			s.drops[f.At] = true
		case KindDup:
			s.dups[f.At] = true
		case KindLatencyRamp:
			s.ramps = append(s.ramps, f)
		case KindPartition:
			s.parts = append(s.parts, f)
		}
	}
	return s
}

// NextCall implements proto.CallScript: the directive for the next
// intercepted call.
func (s *PeerScript) NextCall() proto.CallDirective {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	d := proto.CallDirective{Drop: s.drops[i], Duplicate: s.dups[i]}
	for _, f := range s.ramps {
		if i >= f.At && i < f.At+f.Len {
			// Linear ramp: the link degrades across the window, from
			// near-zero to Arg microseconds at the top.
			frac := float64(i-f.At+1) / float64(f.Len)
			d.Delay = time.Duration(frac*float64(f.Arg)) * time.Microsecond
			if i == f.At {
				s.fired = append(s.fired, f)
			}
		}
	}
	for _, f := range s.parts {
		if i >= f.At && i < f.At+f.Len {
			d.Fail = true
			if i == f.At {
				s.fired = append(s.fired, f)
			}
		}
	}
	return d
}

// Fired returns the windowed faults (latency ramps, partitions) that
// covered at least one call, each once. A drop or duplicate is only a
// directive: the injector may not perform it (a drop needs a dropper, and a
// failed call is never delivered twice), so FaultInjector.Dropped and
// Duplicated count those.
func (s *PeerScript) Fired() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Fault(nil), s.fired...)
}

var _ proto.CallScript = (*PeerScript)(nil)
