package coupled

import (
	"fmt"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/sim"
)

// failNth is a proto.CallScript that fails its nth call and forwards every
// other.
type failNth struct{ n, calls int }

func (f *failNth) NextCall() proto.CallDirective {
	f.calls++
	return proto.CallDirective{Fail: f.calls == f.n}
}

// methodLog is an Exchanger that notes the method and callee of every
// request before passing it on.
type methodLog struct {
	proto.Exchanger
	calls *[]string
}

func (l methodLog) Exchange(req proto.Request) (proto.Response, error) {
	*l.calls = append(*l.calls, req.Method+" "+l.PeerName())
	return l.Exchanger.Exchange(req)
}

// TestPartialNWayStart pins a known defect (ROADMAP.md item 11). Three
// yielding domains share one 3-group, job 1 in each; c's half arrives last,
// finds both mates queued and able to start, and resolves the group: it
// sends try_start_mate to a, which starts, then to b, which fails. c falls
// back to yielding, and a's half runs while b's and c's wait: the group did
// not start together. Item 11's fix (every mate holds for the instant
// first, then all start, and a refusal releases the holds) flips this test:
// then every member starts at one instant or none does.
func TestPartialNWayStart(t *testing.T) {
	group := func(self string, submit sim.Time) []*job.Job {
		j := job.New(1, 4, submit, 600, 900)
		for _, d := range []string{"a", "b", "c"} {
			if d != self {
				j.Mates = append(j.Mates, job.MateRef{Domain: d, Job: 1})
			}
		}
		return []*job.Job{j}
	}
	var domains []DomainConfig
	for i, name := range []string{"a", "b", "c"} {
		domains = append(domains, DomainConfig{Name: name, Nodes: 8, Backfilling: true,
			Cosched: cosched.DefaultConfig(cosched.Yield), Trace: group(name, sim.Time(10*i))})
	}
	s, err := New(Options{Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	// c's calls to both mates go through one script, which fails the
	// fourth: probe a, probe b, try a, then try b.
	script := &failNth{n: 4}
	var calls []string
	for _, mate := range []string{"a", "b"} {
		inj := proto.NewFaultInjector(proto.NewServer(s.Manager(mate), nil, nil), script, nil)
		s.Manager("c").AddPeer(mate, proto.Caller{Exchanger: methodLog{inj, &calls}})
	}
	res := s.Run()

	want := []string{"probe_mate a", "probe_mate b", "try_start_mate a", "try_start_mate b"}
	if len(calls) < len(want) || fmt.Sprint(calls[:len(want)]) != fmt.Sprint(want) {
		t.Fatalf("c's first calls were %q, want %q", calls, want)
	}
	got := map[string]string{}
	for _, name := range []string{"a", "b", "c"} {
		j, _ := s.Manager(name).Job(1)
		got[name] = fmt.Sprintf("%v@%d", j.State, j.StartTime)
	}
	// a/1 ran alone from t=20, where c's try of b failed; b/1 and c/1 never
	// started, and with nothing left to wake their domains they stay queued.
	if want := "map[a:completed@20 b:queued@0 c:queued@0]"; fmt.Sprint(got) != want || res.StuckJobs != 2 {
		t.Fatalf("group %v, %d stuck; want %s, 2 stuck (item 11's partial start)", got, res.StuckJobs, want)
	}
}
