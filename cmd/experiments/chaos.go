package main

import (
	"bytes"
	"fmt"

	"cosched/internal/faultplan"
	"cosched/internal/obs"
)

// runChaosCampaign runs n seeded fault-injection campaigns starting at
// firstSeed through faultplan.RunCampaign and prints one line per seed plus
// the per-seam totals. A failing seed prints a one-line repro; the same
// seed always replays the identical campaign. inject corrupts one journal
// record before the recovery gates — CI's deterministic proof that the
// campaign gate actually trips.
func runChaosCampaign(n int, firstSeed uint64, inject bool) error {
	prof := faultplan.DefaultProfile()
	reg := obs.New()
	journalFaults := obs.CampaignFaults(reg, string(faultplan.SeamJournal))
	peerFaults := obs.CampaignFaults(reg, string(faultplan.SeamPeerlink))
	failed := 0
	for i := 0; i < n; i++ {
		seed := firstSeed + uint64(i)
		plan := faultplan.New(seed, prof)
		// Replay gate: the plan must be a pure function of its seed.
		if !bytes.Equal(plan.Encode(), faultplan.New(seed, prof).Encode()) {
			fmt.Printf("chaos seed %d FAIL: plan is not deterministic\n  repro: %s\n", seed, plan.Repro())
			failed++
			continue
		}
		fired, failures := faultplan.RunCampaign(plan, inject)
		nj, np := fired[faultplan.SeamJournal], fired[faultplan.SeamPeerlink]
		journalFaults.Add(float64(nj))
		peerFaults.Add(float64(np))
		if len(failures) > 0 {
			failed++
			fmt.Printf("chaos seed %d FAIL (%d violation(s)):\n", seed, len(failures))
			for _, p := range failures {
				fmt.Printf("  - %s\n", p)
			}
			fmt.Printf("  repro: %s\n", plan.Repro())
			continue
		}
		fmt.Printf("chaos seed %d ok: %d fault(s) fired (journal %d, peerlink %d)\n", seed, nj+np, nj, np)
	}
	fmt.Printf("chaoscampaign: %d/%d campaign(s) clean; injected fault totals: journal=%g peerlink=%g\n",
		n-failed, n, journalFaults.Value(), peerFaults.Value())
	if failed > 0 {
		return fmt.Errorf("%d of %d campaign(s) violated invariants", failed, n)
	}
	return nil
}
