package invariant

import (
	"strings"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// monitoredPair builds domains A and B of the given size, each peered with
// the other and both observed by one deadlock monitor.
func monitoredPair(cfgA, cfgB cosched.Config, nodes int) (*sim.Engine, *Monitor, *resmgr.Manager, *resmgr.Manager) {
	eng := sim.NewEngine()
	mon := NewMonitor()
	domain := func(name string, cfg cosched.Config) *resmgr.Manager {
		m := resmgr.New(eng, resmgr.Options{
			Name: name, Pool: cluster.New(name, nodes),
			Policy: policy.FCFS{}, Backfilling: true, Cosched: cfg, Observer: mon,
		})
		mon.Register(m)
		return m
	}
	a, b := domain("A", cfgA), domain("B", cfgB)
	a.AddPeer("B", b)
	b.AddPeer("A", a)
	return eng, mon, a, b
}

// fig2Monitored rebuilds the paper's Figure 2 HH deadlock under the
// wait-for-graph monitor: a1 holds all of A waiting for b1 (queued on a
// full B), b2 holds all of B waiting for a2 (queued on a full A). Under HH
// the cycle closes at t=10 when the second pair's submissions land.
func fig2Monitored(t *testing.T, schemeA, schemeB cosched.Scheme, release sim.Duration) (*sim.Engine, *Monitor, [4]*job.Job) {
	t.Helper()
	cfgA, cfgB := cosched.DefaultConfig(schemeA), cosched.DefaultConfig(schemeB)
	cfgA.ReleaseInterval, cfgB.ReleaseInterval = release, release
	eng, mon, a, b := monitoredPair(cfgA, cfgB, 6)
	a1 := job.New(1, 6, 0, 600, 600)
	a2 := job.New(2, 6, 10, 600, 600)
	b2 := job.New(2, 6, 0, 600, 600)
	b1 := job.New(1, 6, 10, 600, 600)
	a1.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	b1.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	a2.Mates = []job.MateRef{{Domain: "B", Job: 2}}
	b2.Mates = []job.MateRef{{Domain: "A", Job: 2}}
	for _, j := range []*job.Job{a1, a2} {
		if err := a.SubmitAt(j); err != nil {
			t.Fatalf("submit A/%d: %v", j.ID, err)
		}
	}
	for _, j := range []*job.Job{b2, b1} {
		if err := b.SubmitAt(j); err != nil {
			t.Fatalf("submit B/%d: %v", j.ID, err)
		}
	}
	return eng, mon, [4]*job.Job{a1, a2, b1, b2}
}

// TestDeadlockDetectedAtCycleClose: with the release enhancement
// disabled, the Figure 2 circular wait forms and wedges; the monitor
// must record exactly one cycle, at the t=10 event where the second
// pair's submissions close the loop, with the two holders as its nodes.
func TestDeadlockDetectedAtCycleClose(t *testing.T) {
	eng, mon, jobs := fig2Monitored(t, cosched.Hold, cosched.Hold, 0)
	eng.Run()
	if jobs[0].State != job.Holding || jobs[3].State != job.Holding {
		t.Fatalf("scenario drifted: a1=%s b2=%s, want both holding", jobs[0].State, jobs[3].State)
	}
	det := mon.Detections()
	if len(det) != 1 {
		t.Fatalf("detections = %d, want exactly 1 (one persistent cycle)", len(det))
	}
	if got := strings.Join(det[0].Nodes, ","); got != "A/1,B/2" {
		t.Errorf("cycle nodes = %q, want A/1,B/2", got)
	}
	if det[0].Start != 10 {
		t.Errorf("cycle detected at t=%d, want t=10 (the event that closes it)", det[0].Start)
	}
	// With the enhancement off a circular wait is a true deadlock by
	// design, not a violated guarantee.
	if v := mon.Violations(); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
	if mon.Scans() == 0 {
		t.Error("monitor observed no events")
	}
}

// TestDeadlockClearedByReleaseInterval: with the §IV-E1 enhancement on,
// the same cycle must form and then be broken within one release
// interval — detected, never violated, and every job completes.
func TestDeadlockClearedByReleaseInterval(t *testing.T) {
	eng, mon, jobs := fig2Monitored(t, cosched.Hold, cosched.Hold, 20*sim.Minute)
	eng.Run()
	for _, j := range jobs {
		if j.State != job.Completed {
			t.Fatalf("job %s not completed; deadlock not broken", j)
		}
	}
	if len(mon.Detections()) == 0 {
		t.Fatal("the transient circular wait was never detected")
	}
	if v := mon.Violations(); len(v) != 0 {
		t.Errorf("cycle outlived the release interval: %v", v)
	}
}

// TestCycleOutlivingIntervalIsViolation drives the monitor's clock past
// the release guarantee by hand: the engine is frozen right after the
// cycle closes, so scanning at start+interval+1 must record a violation
// (and panic in the debug build, where violations fail fast).
func TestCycleOutlivingIntervalIsViolation(t *testing.T) {
	interval := 20 * sim.Minute
	eng, mon, _ := fig2Monitored(t, cosched.Hold, cosched.Hold, interval)
	eng.RunUntil(10)
	if n := len(mon.Detections()); n != 1 {
		t.Fatalf("detections after t=10: %d, want 1", n)
	}
	start := mon.Detections()[0].Start

	if Hardened {
		defer func() {
			if r := recover(); r == nil {
				t.Error("debug build: expected the violation to panic")
			} else if !strings.Contains(r.(string), "outlived the release interval") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
	}
	mon.scan(start + interval + 1)
	if v := mon.Violations(); len(v) != 1 {
		t.Fatalf("violations = %d, want 1", len(v))
	} else if !strings.Contains(v[0], "outlived the release interval") {
		t.Errorf("violation text: %s", v[0])
	}
	// The violation is reported once, not on every later scan.
	mon.scan(start + interval + 2)
	if v := mon.Violations(); len(v) != 1 {
		t.Errorf("violation repeated: %v", v)
	}
}

// TestNoFalseCyclesWhenCapacitySuffices: pairs that co-start without
// contention must never appear in the wait-for graph.
func TestNoFalseCyclesWhenCapacitySuffices(t *testing.T) {
	cfg := cosched.DefaultConfig(cosched.Hold)
	cfg.ReleaseInterval = 20 * sim.Minute
	eng, mon, a, b := monitoredPair(cfg, cfg, 100)
	ja := job.New(1, 10, 0, 600, 600)
	jb := job.New(1, 10, 30, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "B", Job: 1}}
	jb.Mates = []job.MateRef{{Domain: "A", Job: 1}}
	if err := a.SubmitAt(ja); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitAt(jb); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ja.State != job.Completed || jb.State != job.Completed {
		t.Fatalf("states: %s / %s", ja.State, jb.State)
	}
	if det := mon.Detections(); len(det) != 0 {
		t.Errorf("false cycles: %v", det)
	}
}

// TestMixedSchemesNeverTrip: the Figure 2 circular wait needs BOTH
// domains holding. With at least one side on yield — HY, YH, or YY —
// at most one domain ever holds nodes, the wait-for graph cannot close
// a cross-domain cycle, and every job completes whether or not the
// release enhancement is armed. The monitor must observe the whole run
// and record zero detections and zero violations.
func TestMixedSchemesNeverTrip(t *testing.T) {
	combos := []struct {
		name             string
		schemeA, schemeB cosched.Scheme
	}{
		{"HY", cosched.Hold, cosched.Yield},
		{"YH", cosched.Yield, cosched.Hold},
		{"YY", cosched.Yield, cosched.Yield},
	}
	releases := []struct {
		name    string
		release sim.Duration
	}{
		{"release20m", 20 * sim.Minute},
		{"releaseOff", 0},
	}
	for _, combo := range combos {
		for _, rel := range releases {
			t.Run(combo.name+"/"+rel.name, func(t *testing.T) {
				eng, mon, jobs := fig2Monitored(t, combo.schemeA, combo.schemeB, rel.release)
				a1, a2, b1, b2 := jobs[0], jobs[1], jobs[2], jobs[3]
				eng.Run()
				for _, j := range jobs {
					if j.State != job.Completed {
						t.Fatalf("job %s not completed under %s", j, combo.name)
					}
				}
				if a1.StartTime != b1.StartTime || a2.StartTime != b2.StartTime {
					t.Fatalf("co-starts violated: pair1 %d/%d pair2 %d/%d",
						a1.StartTime, b1.StartTime, a2.StartTime, b2.StartTime)
				}
				if det := mon.Detections(); len(det) != 0 {
					t.Errorf("cycle detected under %s: %v", combo.name, det)
				}
				if v := mon.Violations(); len(v) != 0 {
					t.Errorf("violations under %s: %v", combo.name, v)
				}
				if mon.Scans() == 0 {
					t.Error("monitor observed no events")
				}
			})
		}
	}
}
