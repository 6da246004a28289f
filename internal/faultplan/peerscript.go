package faultplan

import (
	"sync"

	"cosched/internal/proto"
)

// PeerScript replays one direction's peerlink faults call by call: it is
// the proto.CallScript of that direction's proto.FaultInjector. Calls are
// indexed from 0 in interception order, which under a virtual-clock
// harness is deterministic, so the same plan always hits the same calls.
type PeerScript struct {
	mu    sync.Mutex
	n     int
	dups  map[int]Fault
	parts []Fault // sorted by At
	fired []Fault
}

// NewPeerScript builds the script for direction dir of plan.
func NewPeerScript(plan *Plan, dir int) *PeerScript {
	s := &PeerScript{dups: map[int]Fault{}}
	for _, f := range plan.Peer(dir) {
		switch f.Kind {
		case KindDup:
			s.dups[f.At] = f
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
	var d proto.CallDirective
	for _, f := range s.parts {
		if i >= f.At && i < f.At+f.Len {
			d.Fail = true
			if i == f.At {
				s.fired = append(s.fired, f)
			}
		}
	}
	// A failed call never reaches the peer, so a duplicate inside a
	// partition window is not delivered.
	if f, ok := s.dups[i]; ok && !d.Fail {
		d.Duplicate = true
		s.fired = append(s.fired, f)
	}
	return d
}

// Fired returns, in call order, the faults the injector performed: each
// partition that covered at least one call, once, and each duplicate
// outside a partition window.
func (s *PeerScript) Fired() []Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Fault(nil), s.fired...)
}

var _ proto.CallScript = (*PeerScript)(nil)
