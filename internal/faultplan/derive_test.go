package faultplan

import "testing"

// TestStreamDeriveIsStableAndIndependent: a seam's stream is a pure
// function of (seed, label), and differently labeled streams do not
// collide. The first draws were recorded from the plan layer's own
// splitmix64 copy before derive moved onto workload.RNG, so every seed's
// schedule is unchanged by the move.
func TestStreamDeriveIsStableAndIndependent(t *testing.T) {
	for label, want := range map[string][3]uint64{
		"journal":  {0x5ac8b47ce717c3e1, 0x23a6d5db7412895d, 0xd6426c12f9b2852e},
		"peerlink": {0xa18c1af657425cbd, 0x35e402f1f52127d2, 0x30eaccd2a91572bf},
	} {
		s := derive(9, label)
		for i, w := range want {
			if got := s.Uint64(); got != w {
				t.Fatalf("derive(9, %q) draw %d = %#x, want %#x", label, i, got, w)
			}
		}
	}
	a, b := derive(9, "journal"), derive(9, "peerlink")
	diff := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			diff++
		}
	}
	if diff < 60 {
		t.Fatalf("differently-labeled derivations collided on %d/64 draws", 64-diff)
	}
}
