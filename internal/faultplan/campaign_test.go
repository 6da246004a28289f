package faultplan_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cosched/internal/faultplan"
)

// TestRunCampaign is the chaos-campaign gate: 25 seeded campaigns end to
// end, one subtest per seed so a failing seed reruns alone (Plan.Repro
// prints the command). Each seed's plan must be a pure function of the
// seed, every campaign must pass its gates, and across the seeds both seams
// must actually fire; seeds 1 and 2 run twice and must fire the same faults
// on replay. A plan of nothing but drops reports no peerlink fault fired,
// since nothing performs them. Then the deterministic must-fail path: one
// flipped journal byte has to trip the clean-filesystem gate, proving a
// campaign can actually fail.
func TestRunCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("a campaign is a full coupled simulation with two journals on disk")
	}
	prof := faultplan.DefaultProfile()
	seams := []faultplan.Seam{faultplan.SeamJournal, faultplan.SeamPeerlink}
	total, ran := map[faultplan.Seam]int{}, 0
	for seed := uint64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			plan := faultplan.New(seed, prof)
			if !bytes.Equal(plan.Encode(), faultplan.New(seed, prof).Encode()) {
				t.Fatalf("plan is not deterministic\n  repro: %s", plan.Repro())
			}
			fired, failures := faultplan.RunCampaign(plan, false)
			if len(failures) > 0 {
				t.Errorf("clean campaign failed its gates:\n  %s\n  repro: %s", strings.Join(failures, "\n  "), plan.Repro())
			}
			for _, seam := range seams {
				total[seam] += fired[seam]
			}
			if seed > 2 {
				return
			}
			again, _ := faultplan.RunCampaign(faultplan.New(seed, prof), false)
			for _, seam := range seams {
				if fired[seam] != again[seam] {
					t.Errorf("%s fired %d fault(s), then %d on replay", seam, fired[seam], again[seam])
				}
			}
		})
	}
	t.Logf("%d campaign(s); injected fault totals: journal=%d peerlink=%d", ran, total[faultplan.SeamJournal], total[faultplan.SeamPeerlink])
	for _, seam := range seams {
		// A -run filter that picks one seed may legitimately pick a quiet one.
		if ran == 25 && total[seam] == 0 {
			t.Errorf("no %s fault fired in 25 campaigns; the seam exercised nothing", seam)
		}
	}
	t.Run("scheduled drops are not performed", func(t *testing.T) {
		// The campaign wires no dropper — its peers have no connection to
		// cut — so a drop directive changes nothing and must neither count as
		// an injected fault nor budget a co-start violation. Seven of seed
		// 14's scheduled drops land on calls the campaign makes; with the
		// other peerlink faults removed, that seam fires nothing.
		plan := faultplan.New(14, prof)
		var faults []faultplan.Fault
		drops := 0
		for _, f := range plan.Faults {
			switch {
			case f.Kind == faultplan.KindDrop:
				drops++
			case f.Seam == faultplan.SeamPeerlink:
				continue
			}
			faults = append(faults, f)
		}
		if drops == 0 {
			t.Fatalf("seed 14 schedules no drop:\n  %s", plan)
		}
		plan.Faults = faults
		fired, failures := faultplan.RunCampaign(plan, false)
		if len(failures) > 0 {
			t.Errorf("campaign failed its gates:\n  %s", strings.Join(failures, "\n  "))
		}
		if fired[faultplan.SeamPeerlink] != 0 {
			t.Fatalf("%d scheduled drop(s) and no other peerlink fault: %d peerlink fault(s) reported fired, want 0 — no harness wires a dropper",
				drops, fired[faultplan.SeamPeerlink])
		}
	})
	t.Run("flipped byte must fail", func(t *testing.T) {
		_, failures := faultplan.RunCampaign(faultplan.New(1, prof), true)
		if len(failures) != 1 || !strings.Contains(failures[0], "journal b torn") {
			t.Fatalf("corrupted journal byte: gate failures = %q, want exactly the clean-filesystem torn-tail gate", failures)
		}
	})
}
