package coupled

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/proto"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// plainPeer is a peer without the Prober extension (and without
// Reconciler): embedding the two interface values promotes exactly the
// Peer and CoStarter methods, so cosched.ProbeMate has to compose the probe
// from GetMateJob / GetMateStatus / CanStartMate, as every peer did before
// the extension existed.
type plainPeer struct {
	cosched.Peer
	cosched.CoStarter
}

// probeScenario is one cell of the differential sweep.
type probeScenario struct {
	name      string
	domains   func() []DomainConfig // fresh traces per run: a run mutates its jobs
	faultRate float64
}

func probeScenarios() []probeScenario {
	var out []probeScenario
	for _, sa := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
		for _, sb := range []cosched.Scheme{cosched.Hold, cosched.Yield} {
			sa, sb := sa, sb
			out = append(out, probeScenario{name: sa.Short() + sb.Short(), domains: func() []DomainConfig {
				a, b := smallTraces(23, 60, 0.3)
				return []DomainConfig{
					{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(sa), Trace: a},
					{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(sb), Trace: b},
				}
			}})
		}
	}
	out = append(out, probeScenario{name: "3-way", domains: threeWayDomains})
	out = append(out, probeScenario{name: "HY-faults", faultRate: 0.05, domains: func() []DomainConfig {
		a, b := smallTraces(207, 80, 0.3)
		return []DomainConfig{
			{Name: "A", Nodes: 64, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold), Trace: a},
			{Name: "B", Nodes: 8, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Yield), Trace: b},
		}
	}})
	return out
}

// threeWayDomains is three contended domains with several 3-way groups, so
// probes of a group's mates disagree (one startable, one not) often enough
// to exercise the never-start-partially rule.
func threeWayDomains() []DomainConfig {
	mkTrace := func(seed uint64) []*job.Job {
		tr, err := workload.Generate(workload.Spec{
			Name: "t", Jobs: 40, Span: 2 * sim.Hour,
			Sizes:     []workload.SizeClass{{Nodes: 4, Weight: 0.5}, {Nodes: 8, Weight: 0.5}},
			RuntimeMu: 6.5, RuntimeSigma: 0.5,
			MinRuntime: sim.Minute, MaxRuntime: 30 * sim.Minute,
			WallFactorMin: 1.2, WallFactorMax: 1.5,
			Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		return tr
	}
	ta, tb, tc := mkTrace(1), mkTrace(2), mkTrace(3)
	for _, g := range [][3]int{{5, 10, 15}, {12, 3, 20}, {30, 25, 8}, {22, 35, 33}} {
		if err := workload.LinkGroup([]*job.Job{ta[g[0]], tb[g[1]], tc[g[2]]}, []string{"A", "B", "C"}); err != nil {
			panic(err)
		}
	}
	cfg := cosched.DefaultConfig(cosched.Hold)
	return []DomainConfig{
		{Name: "A", Nodes: 16, Backfilling: true, Cosched: cfg, Trace: ta},
		{Name: "B", Nodes: 16, Backfilling: true, Cosched: cfg, Trace: tb},
		{Name: "C", Nodes: 16, Backfilling: true, Cosched: cfg, Trace: tc},
	}
}

// probeRun is what one run of a scenario leaves behind: each domain's
// journal.wal bytes, in domain order, and the printed Result.
type probeRun struct {
	wals   [][]byte
	result string
}

// runProbeScenario runs sc with its peers wired one of three ways, each
// domain journaled from its first transition on.
func runProbeScenario(t *testing.T, sc probeScenario, wiring string) probeRun {
	t.Helper()
	domains := sc.domains()
	stores := make([]*journal.Store, len(domains))
	for i := range domains {
		st, err := journal.Open(filepath.Join(t.TempDir(), domains[i].Name), journal.Options{FsyncInterval: math.MaxInt64})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		domains[i].Observer = journal.NewRecorder(st, nil, func(err error) { t.Errorf("%s/%s: journal: %v", sc.name, wiring, err) })
	}
	opt := Options{Domains: domains, UseWireProtocol: wiring == "wire", FaultRate: sc.faultRate, FaultSeed: 99}
	if wiring == "plain" {
		opt.FaultRate = 0 // injectors are re-stacked over the plain peers below
	}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.name, wiring, err)
	}
	if wiring == "plain" {
		// Same walk and same seeds as New's wiring loop.
		seed := opt.FaultSeed
		for _, a := range s.order {
			for _, b := range s.order {
				if a == b {
					continue
				}
				var peer cosched.Peer = plainPeer{s.managers[b], s.managers[b]}
				if _, isProber := peer.(cosched.Prober); isProber {
					t.Fatal("plainPeer exposes cosched.Prober; the fallback would not run")
				}
				seed++
				if sc.faultRate > 0 {
					// As New wires a faulted direct peer: the injector wraps
					// the dispatch of a proto.Server around it.
					peer = proto.NewFaultInjector(proto.NewServer(peer, nil, nil), proto.NewRateScript(seed, proto.Rates{Fail: sc.faultRate}), nil)
				}
				s.managers[a].AddPeer(b, peer)
			}
		}
	}
	res := s.Run()
	if res.StuckJobs != 0 || (sc.faultRate == 0 && res.CoStartViolations != 0) {
		t.Errorf("%s/%s: %d stuck jobs, %d co-start violations", sc.name, wiring, res.StuckJobs, res.CoStartViolations)
	}
	run := probeRun{result: fmt.Sprintf("%+v", *res)}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(st.Dir(), "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(wal) == 0 {
			t.Fatalf("%s/%s: %s journaled nothing", sc.name, wiring, st.Dir())
		}
		run.wals = append(run.wals, wal)
	}
	return run
}

// diff describes the first difference between two runs: the Results, or
// the first journal entry where a domain's WAL bytes part.
func (r probeRun) diff(o probeRun) string {
	if r.result != o.result {
		return fmt.Sprintf("Result\n %s\nvs\n %s", r.result, o.result)
	}
	for d := range r.wals {
		if bytes.Equal(r.wals[d], o.wals[d]) {
			continue
		}
		a, _, _ := journal.DecodeEntries(r.wals[d])
		b, _, _ := journal.DecodeEntries(o.wals[d])
		for i := 0; i < min(len(a), len(b)); i++ {
			if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
				return fmt.Sprintf("domain %d journal entry %d\n %+v\nvs\n %+v", d, i, a[i], b[i])
			}
		}
		return fmt.Sprintf("domain %d journal: %d entries vs %d", d, len(a), len(b))
	}
	return ""
}

// TestProbeDifferential runs every scenario with direct Manager peers (the
// Prober extension, in process), with the same peers behind a plain-Peer
// wrapper (the three-call composition in cosched.ProbeMate) and over the
// wire protocol (probe_mate frames), and requires byte-identical journals —
// every domain's journal.wal, peer decisions included — and Results: the
// combined probe is exact, not approximate. The faulted
// cell holds too because a FaultInjector draws once per exchange, and a
// probe_mate is one exchange whichever way the server behind it then
// gathers the answer.
func TestProbeDifferential(t *testing.T) {
	for _, sc := range probeScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			direct := runProbeScenario(t, sc, "direct")
			for _, wiring := range []string{"plain", "wire"} {
				if d := direct.diff(runProbeScenario(t, sc, wiring)); d != "" {
					t.Fatalf("%s wiring diverges from direct peers at %s", wiring, d)
				}
			}
		})
	}
}
