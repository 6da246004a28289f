package faultplan_test

import (
	"strings"
	"testing"

	"cosched/internal/faultplan"
)

// TestRunCampaign runs two full campaigns end to end, twice each — clean
// gates, and the same fired counts on replay — and then the deterministic
// must-fail path: one flipped journal byte has to trip the clean-filesystem
// gate, proving a campaign can actually fail.
func TestRunCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("a campaign is a full coupled simulation with two journals on disk")
	}
	prof := faultplan.DefaultProfile()
	for seed := uint64(1); seed <= 2; seed++ {
		fired, failures := faultplan.RunCampaign(faultplan.New(seed, prof), false)
		if len(failures) > 0 {
			t.Errorf("seed %d: clean campaign failed its gates:\n  %s", seed, strings.Join(failures, "\n  "))
		}
		if fired[faultplan.SeamPeerlink] == 0 {
			t.Errorf("seed %d: no peerlink fault fired; the campaign exercised nothing", seed)
		}
		again, _ := faultplan.RunCampaign(faultplan.New(seed, prof), false)
		for _, seam := range []faultplan.Seam{faultplan.SeamJournal, faultplan.SeamPeerlink} {
			if fired[seam] != again[seam] {
				t.Errorf("seed %d: %s fired %d fault(s), then %d on replay", seed, seam, fired[seam], again[seam])
			}
		}
	}
	_, failures := faultplan.RunCampaign(faultplan.New(1, prof), true)
	if len(failures) != 1 || !strings.Contains(failures[0], "journal b torn") {
		t.Fatalf("corrupted journal byte: gate failures = %q, want exactly the clean-filesystem torn-tail gate", failures)
	}
}
