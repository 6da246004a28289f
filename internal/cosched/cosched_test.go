package cosched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cosched/internal/job"
	"cosched/internal/sim"
)

func TestSchemeStrings(t *testing.T) {
	if Hold.String() != "hold" || Yield.String() != "yield" {
		t.Fatalf("strings: %s / %s", Hold, Yield)
	}
	if Hold.Short() != "H" || Yield.Short() != "Y" {
		t.Fatalf("shorts: %s / %s", Hold.Short(), Yield.Short())
	}
}

func TestParseScheme(t *testing.T) {
	cases := map[string]Scheme{
		"hold": Hold, "h": Hold, "H": Hold,
		"yield": Yield, "y": Yield, "Y": Yield,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestMateStatusRoundTrip(t *testing.T) {
	// The names are the wire encoding: pinned here so a reordered enum or
	// a renamed status cannot slip through as a self-consistent change.
	wire := []string{"unknown", "unsubmitted", "queuing", "holding", "running", "completed"}
	if len(wire) != len(statusNames) {
		t.Fatalf("%d statuses named, test pins %d", len(statusNames), len(wire))
	}
	for i, name := range wire {
		st := MateStatus(i)
		if st.String() != name {
			t.Errorf("MateStatus(%d).String() = %q, want %q", i, st, name)
		}
		got, err := ParseMateStatus(name)
		if err != nil || got != st {
			t.Errorf("ParseMateStatus(%q) = %v, %v, want %v", name, got, err, st)
		}
	}
	_, err := ParseMateStatus("nope")
	if err == nil || err.Error() != `cosched: unknown mate status "nope"` {
		t.Fatalf("bogus status: err = %v", err)
	}
	for _, out := range []MateStatus{99, -1, MateStatus(len(wire))} {
		want := fmt.Sprintf("matestatus(%d)", int(out))
		if s := out.String(); s != want {
			t.Errorf("out-of-range status string = %q, want %q", s, want)
		}
		if _, err := ParseMateStatus(out.String()); err == nil {
			t.Errorf("out-of-range name %q parsed", out.String())
		}
	}
}

// scriptedPeer is a plain Peer (no extension) that answers from fixed
// values and records the order of the calls it receives.
type scriptedPeer struct {
	known         bool
	status        MateStatus
	canStart      bool
	jobErr, stErr error
	canErr        error
	calls         []string
	Peer          // nil: supplies the start calls, which a probe must never reach
}

func (p *scriptedPeer) GetMateJob(job.ID) (bool, error) {
	p.calls = append(p.calls, "job")
	return p.known, p.jobErr
}

func (p *scriptedPeer) GetMateStatus(job.ID) (MateStatus, error) {
	p.calls = append(p.calls, "status")
	return p.status, p.stErr
}

func (p *scriptedPeer) CanStartMate(job.ID) (bool, error) {
	p.calls = append(p.calls, "can")
	return p.canStart, p.canErr
}

// proberPeer adds the extension; ProbeMate must use it and nothing else.
type proberPeer struct {
	scriptedPeer
	probe MateProbe
}

func (p *proberPeer) ProbeMate(job.ID) (MateProbe, error) {
	p.calls = append(p.calls, "probe")
	return p.probe, nil
}

// TestProbeMate pins the three-call composition to what Run_Job did with
// the plain calls: which calls are made, in which order, when the exchange
// stops early, and how each failure is reported.
func TestProbeMate(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		peer    scriptedPeer
		want    MateProbe
		wantErr bool
		calls   string
	}{
		{"unknown job stops after one call", scriptedPeer{}, MateProbe{}, false, "job"},
		{"GetMateJob error is the probe's error", scriptedPeer{known: true, jobErr: boom}, MateProbe{}, true, "job"},
		{"GetMateStatus error is the probe's error", scriptedPeer{known: true, stErr: boom}, MateProbe{}, true, "job status"},
		{"unknown status needs no can-start", scriptedPeer{known: true}, MateProbe{Known: true}, false, "job status"},
		{"holding mate is never asked can-start", scriptedPeer{known: true, status: StatusHolding, canStart: true},
			MateProbe{Known: true, Status: StatusHolding}, false, "job status"},
		{"running mate is never asked can-start", scriptedPeer{known: true, status: StatusRunning},
			MateProbe{Known: true, Status: StatusRunning}, false, "job status"},
		{"queuing mate, startable", scriptedPeer{known: true, status: StatusQueuing, canStart: true},
			MateProbe{Known: true, Status: StatusQueuing, CanStart: true}, false, "job status can"},
		{"unsubmitted mate, not startable", scriptedPeer{known: true, status: StatusUnsubmitted},
			MateProbe{Known: true, Status: StatusUnsubmitted}, false, "job status can"},
		{"CanStartMate error means cannot start, not unreachable",
			scriptedPeer{known: true, status: StatusQueuing, canStart: true, canErr: boom},
			MateProbe{Known: true, Status: StatusQueuing}, false, "job status can"},
	}
	for _, c := range cases {
		p := c.peer
		got, err := ProbeMate(&p, 7)
		if got != c.want || (err != nil) != c.wantErr || strings.Join(p.calls, " ") != c.calls {
			t.Errorf("%s: ProbeMate = %+v, %v after calls %q; want %+v, err=%v after %q",
				c.name, got, err, p.calls, c.want, c.wantErr, c.calls)
		}
	}

	want := MateProbe{Known: true, Status: StatusQueuing, CanStart: true}
	pp := &proberPeer{probe: want}
	if got, err := ProbeMate(pp, 7); err != nil || got != want || strings.Join(pp.calls, " ") != "probe" {
		t.Errorf("Prober peer: ProbeMate = %+v, %v after calls %q; want %+v after one probe", got, err, pp.calls, want)
	}
}

func TestFromJobState(t *testing.T) {
	cases := map[job.State]MateStatus{
		job.Unsubmitted: StatusUnsubmitted,
		job.Queued:      StatusQueuing,
		job.Holding:     StatusHolding,
		job.Running:     StatusRunning,
		job.Completed:   StatusCompleted,
		job.State(42):   StatusUnknown,
	}
	for in, want := range cases {
		if got := FromJobState(in); got != want {
			t.Errorf("FromJobState(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(Yield)
	if !c.Enabled || c.Scheme != Yield || c.ReleaseInterval != 20*sim.Minute {
		t.Fatalf("default config = %+v", c)
	}
	if c.EffectiveMaxHeldFraction() != 1.0 {
		t.Fatalf("effective cap = %g", c.EffectiveMaxHeldFraction())
	}
}

func TestEffectiveMaxHeldFraction(t *testing.T) {
	cases := map[float64]float64{0: 1.0, -1: 1.0, 0.5: 0.5, 1.0: 1.0, 1.5: 1.0}
	for in, want := range cases {
		c := Config{MaxHeldFraction: in}
		if got := c.EffectiveMaxHeldFraction(); got != want {
			t.Errorf("cap %g → %g, want %g", in, got, want)
		}
	}
}

// Property: parse∘string is the identity for both schemes and all named
// statuses.
func TestStringParseProperty(t *testing.T) {
	f := func(raw uint8) bool {
		st := MateStatus(raw % 6)
		got, err := ParseMateStatus(st.String())
		return err == nil && got == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
