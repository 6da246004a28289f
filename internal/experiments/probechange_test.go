package experiments

import (
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/coupled"
	"cosched/internal/job"
	"cosched/internal/resmgr"
)

// probeCounter is a direct peer that remembers the last answer each mate's
// probe got. It embeds the manager, so every other peer call — and every
// optional peer interface the caller looks for — goes straight through.
type probeCounter struct {
	*resmgr.Manager
	last  map[job.ID]cosched.MateProbe
	count *probeCounts
}

type probeCounts struct {
	probes   int // ProbeMate calls
	reprobes int // … for a mate that had been probed before
	same     int // … that returned what the previous probe of that mate returned
}

func (p *probeCounter) ProbeMate(id job.ID) (cosched.MateProbe, error) {
	probe, err := p.Manager.ProbeMate(id)
	p.count.probes++
	if prev, ok := p.last[id]; ok {
		p.count.reprobes++
		if prev == probe {
			p.count.same++
		}
	}
	p.last[id] = probe
	return probe, err
}

// TestProbeAnswerChangeOnSweepPass measures what yield memoization (ROADMAP)
// would have to win from: over one sweep_paper pass — both sweeps, seed 1,
// two repetitions, every combo cell — how many probes are repeats by a job
// that probed its mate before, and how many of those learn nothing new. A
// pair's two jobs probe through opposite peers, so "the mate probed" names
// the probing job. The figures are recorded in EXPERIMENTS.md; a scheduler
// change that moves them moves the golden digests too.
func TestProbeAnswerChangeOnSweepPass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 80 paper-scale cells")
	}
	cfg := DefaultConfig(1, 1.0).normalized()
	cfg.Reps, cfg.Parallelism = 2, 1
	var pairs []*tracePair
	for _, sp := range []*sweepSpec{sweepSpecs[KindLoad], sweepSpecs[KindProp]} {
		for g := 0; g < len(sp.points)*cfg.Reps; g++ {
			pair, err := sp.freeze(cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair)
		}
	}
	var count probeCounts
	var buf cellBuffers
	for _, pair := range pairs {
		for _, combo := range Combos {
			intr, eur := pair.materialize(&buf)
			s, err := coupled.New(coupled.Options{Domains: pairDomains(cfg, cfg.setup(combo), intr, eur)})
			if err != nil {
				t.Fatal(err)
			}
			mi, me := s.Manager(DomIntrepid), s.Manager(DomEureka)
			mi.AddPeer(DomEureka, &probeCounter{Manager: me, last: map[job.ID]cosched.MateProbe{}, count: &count})
			me.AddPeer(DomIntrepid, &probeCounter{Manager: mi, last: map[job.ID]cosched.MateProbe{}, count: &count})
			if res := s.Run(); res.StuckJobs != 0 {
				t.Fatalf("%s: %d stuck jobs", combo.Label(), res.StuckJobs)
			}
		}
	}
	t.Logf("probes %d, re-probes %d (%.1f%%), re-probes with an unchanged answer %d (%.1f%% of re-probes, %.1f%% of probes)",
		count.probes, count.reprobes, 100*float64(count.reprobes)/float64(count.probes),
		count.same, 100*float64(count.same)/float64(count.reprobes), 100*float64(count.same)/float64(count.probes))
	if want := (probeCounts{probes: 737667, reprobes: 580180, same: 556290}); count != want {
		t.Errorf("probe counts %+v, EXPERIMENTS.md records %+v: if the scheduler change is intended, update both", count, want)
	}
}
