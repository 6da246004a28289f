package faultplan_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cosched/internal/faultplan"
)

// TestRunCampaign is the chaos-campaign gate: 25 seeded campaigns end to
// end, one subtest per seed so a failing seed reruns alone (Plan.Repro
// prints the command). Each seed's plan must be a pure function of the
// seed, every campaign must pass its gates, and across the seeds both seams
// must actually fire; seeds 1 and 2 run twice and must fire the same faults
// on replay. The fired totals are logged per seam and per kind. A
// hand-built plan then proves a scheduled restart runs its drill, and the
// deterministic must-fail path follows: one flipped journal byte has to
// trip the clean-filesystem gate, proving a campaign can actually fail.
func TestRunCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("a campaign is a full coupled simulation with two journals on disk")
	}
	seams := []faultplan.Seam{faultplan.SeamJournal, faultplan.SeamPeerlink}
	bySeam, byKind, ran := map[faultplan.Seam]int{}, map[faultplan.Kind]int{}, 0
	for seed := uint64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			plan := faultplan.New(seed)
			if !bytes.Equal(plan.Encode(), faultplan.New(seed).Encode()) {
				t.Fatalf("plan is not deterministic\n  repro: %s", plan.Repro())
			}
			fired, failures := faultplan.RunCampaign(plan, false)
			if len(failures) > 0 {
				t.Errorf("clean campaign failed its gates:\n  %s\n  repro: %s", strings.Join(failures, "\n  "), plan.Repro())
			}
			for _, f := range fired {
				bySeam[f.Seam]++
				byKind[f.Kind]++
			}
			if seed > 2 {
				return
			}
			again, _ := faultplan.RunCampaign(faultplan.New(seed), false)
			if fmt.Sprint(fired) != fmt.Sprint(again) {
				t.Errorf("fired %v, then %v on replay", fired, again)
			}
		})
	}
	kinds := make([]string, 0, len(byKind))
	for k, n := range byKind {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	t.Logf("%d campaign(s); injected fault totals: journal=%d peerlink=%d; by kind: %s",
		ran, bySeam[faultplan.SeamJournal], bySeam[faultplan.SeamPeerlink], strings.Join(kinds, " "))
	for _, seam := range seams {
		// A -run filter that picks one seed may legitimately pick a quiet one.
		if ran == 25 && bySeam[seam] == 0 {
			t.Errorf("no %s fault fired in 25 campaigns; the seam exercised nothing", seam)
		}
	}
	t.Run("scheduled restart runs its drill", func(t *testing.T) {
		restart := faultplan.Fault{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindRestart, At: 600}
		fired, failures := faultplan.RunCampaign(&faultplan.Plan{Seed: 1, Faults: []faultplan.Fault{restart}}, false)
		if len(failures) > 0 {
			t.Errorf("campaign failed its gates:\n  %s", strings.Join(failures, "\n  "))
		}
		if got, want := fmt.Sprint(fired), fmt.Sprint([]faultplan.Fault{restart}); got != want {
			t.Fatalf("fired = %s, want %s", got, want)
		}
	})
	t.Run("flipped byte must fail", func(t *testing.T) {
		_, failures := faultplan.RunCampaign(faultplan.New(1), true)
		if len(failures) != 1 || !strings.Contains(failures[0], "journal b torn") {
			t.Fatalf("corrupted journal byte: gate failures = %q, want exactly the clean-filesystem torn-tail gate", failures)
		}
	})
}

// TestFailedProbeStrandsYieldingMate pins a known defect (ROADMAP.md item
// 15). One partition of a→b at its 58th call fails a/57's probe of b/57, so
// a/57 starts uncoordinated and completes; b/57 had yielded, b runs no
// scheduling iteration after it, and b/57 stays queued for ever. The paper's
// "a job will not wait forever" holds for a/57 and fails for its mate. Item
// 15's fix re-examines a yielding job without waiting for an unrelated event
// in its domain, and flips this test: the campaign must then pass its gates.
func TestFailedProbeStrandsYieldingMate(t *testing.T) {
	plan := &faultplan.Plan{Seed: 18, Faults: []faultplan.Fault{
		{Seam: faultplan.SeamPeerlink, Kind: faultplan.KindPartition, Dir: 0, At: 58, Len: 1},
	}}
	_, failures := faultplan.RunCampaign(plan, false)
	const stuck = "coupled run stuck: 1/120 jobs never finished (horizon hit: false)"
	if len(failures) != 1 || failures[0] != stuck {
		t.Fatalf("gate failures = %q, want exactly %q (item 15's stranded mate)", failures, stuck)
	}
}
