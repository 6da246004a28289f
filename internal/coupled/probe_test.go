package coupled

import (
	"bytes"
	"fmt"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/eventlog"
	"cosched/internal/job"
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

// runProbeScenario runs sc with its peers wired one of three ways and
// returns the full event log followed by the printed Result.
func runProbeScenario(t *testing.T, sc probeScenario, wiring string) string {
	t.Helper()
	var buf bytes.Buffer
	elog := eventlog.New(&buf)
	domains := sc.domains()
	for i := range domains {
		domains[i].Observer = elog.Observer(domains[i].Name)
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
	if err := elog.Flush(); err != nil {
		t.Fatalf("%s/%s: event log: %v", sc.name, wiring, err)
	}
	if res.StuckJobs != 0 || (sc.faultRate == 0 && res.CoStartViolations != 0) {
		t.Errorf("%s/%s: %d stuck jobs, %d co-start violations", sc.name, wiring, res.StuckJobs, res.CoStartViolations)
	}
	return buf.String() + fmt.Sprintf("%+v\n", *res)
}

// TestProbeDifferential runs every scenario with direct Manager peers (the
// Prober extension, in process), with the same peers behind a plain-Peer
// wrapper (the three-call composition in cosched.ProbeMate) and over the
// wire protocol (probe_mate frames), and requires byte-identical event logs
// and Results: the combined probe is exact, not approximate. The faulted
// cell holds too because a FaultInjector draws once per exchange, and a
// probe_mate is one exchange whichever way the server behind it then
// gathers the answer.
func TestProbeDifferential(t *testing.T) {
	for _, sc := range probeScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			direct := runProbeScenario(t, sc, "direct")
			for _, wiring := range []string{"plain", "wire"} {
				if got := runProbeScenario(t, sc, wiring); got != direct {
					t.Fatalf("%s wiring diverges from direct peers\ndirect:\n%s\n%s:\n%s", wiring, direct, wiring, got)
				}
			}
		})
	}
}
