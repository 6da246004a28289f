package peerlink_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/peerlink"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// conformanceBackend is a fresh manager named "remote" on a 10-node pool
// whose engine never steps: job 1 (4 nodes, paired with job 7 of domain
// "local") and job 3 (4 nodes) are queued, job 2 is expected but not
// submitted.
func conformanceBackend(t *testing.T) *resmgr.Manager {
	t.Helper()
	m := resmgr.New(sim.NewEngine(), resmgr.Options{
		Name: "remote", Pool: cluster.New("remote", 10), Policy: policy.FCFS{},
		Cosched: cosched.DefaultConfig(cosched.Hold),
	})
	paired := job.New(1, 4, 0, 600, 600)
	paired.Mates = []job.MateRef{{Domain: "local", Job: 7}}
	for _, err := range []error{m.Submit(paired), m.Expect(job.New(2, 4, 0, 600, 600)), m.Submit(job.New(3, 4, 0, 600, 600))} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// errClass is what a resilience layer routes on: no error, a refusal by the
// remote manager, or a failed exchange.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case proto.IsRemote(err):
		return "remote"
	default:
		return "transport"
	}
}

// TestExchangeConformance runs one request script against a fresh identical
// backend through every Exchanger stack the repo builds, and requires the
// same Responses (Seq aside, which only a connection sets) and the same
// error classes from each: the layers differ in how a request travels, never
// in what it answers.
func TestExchangeConformance(t *testing.T) {
	at := sim.Time(0)
	script := []struct {
		req  proto.Request
		want string // error class
	}{
		{proto.Request{Method: proto.MethodPing}, "ok"},
		{proto.Request{Method: proto.MethodProbeMate, JobID: 1}, "ok"},
		{proto.Request{Method: proto.MethodProbeMate, JobID: 99}, "ok"},
		{proto.Request{Method: proto.MethodGetMateJob, JobID: 2}, "ok"},
		{proto.Request{Method: proto.MethodGetMateStatus, JobID: 2}, "ok"},
		{proto.Request{Method: proto.MethodCanStartMate, JobID: 1}, "ok"},
		{proto.Request{Method: proto.MethodTryStartMate, JobID: 1}, "ok"},
		{proto.Request{Method: proto.MethodTryStartMate, JobID: 3, At: &at}, "ok"},
		{proto.Request{Method: proto.MethodStartMate, JobID: 2}, "remote"}, // not holding
		{proto.Request{Method: proto.MethodReconcile, From: "local", Views: []proto.MateWire{
			{Local: 7, Mate: 1, Status: cosched.StatusHolding.String()},
		}}, "ok"},
		{proto.Request{Method: "bogus"}, "remote"},
	}
	stacks := []struct {
		name  string
		build func(t *testing.T, srv *proto.Server) proto.Exchanger
	}{
		{"Server", func(_ *testing.T, srv *proto.Server) proto.Exchanger { return srv }},
		{"Client/in-process", func(_ *testing.T, srv *proto.Server) proto.Exchanger {
			return proto.NewClient(srv.InProcessConn(), 0)
		}},
		{"Client/TCP", func(t *testing.T, srv *proto.Server) proto.Exchanger {
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := proto.Dial(addr.String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"FaultInjector/rate 0", func(_ *testing.T, srv *proto.Server) proto.Exchanger {
			return proto.NewFaultInjector(srv, proto.NewRateScript(1, proto.Rates{}), nil)
		}},
		{"Link/in-process Client", func(_ *testing.T, srv *proto.Server) proto.Exchanger {
			return peerlink.New(peerlink.Config{Name: "remote", Dial: func(string, time.Duration, time.Duration) (peerlink.Transport, error) {
				return proto.NewClient(srv.InProcessConn(), 0), nil
			}})
		}},
	}
	type answer struct {
		resp  proto.Response
		class string
	}
	var reference []answer
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			// The lock orders the TCP server's goroutine after this one.
			ex := st.build(t, proto.NewServer(conformanceBackend(t), new(sync.Mutex), nil))
			var got []answer
			for i, step := range script {
				resp, err := ex.Exchange(step.req)
				resp.Seq = 0
				if c := errClass(err); c != step.want {
					t.Errorf("step %d (%s): error %v is %s, want %s", i, step.req.Method, err, c, step.want)
				}
				got = append(got, answer{resp, errClass(err)})
			}
			if ex.PeerName() != "remote" { // a Client learns it from the ping
				t.Errorf("PeerName = %q, want remote", ex.PeerName())
			}
			if last := got[len(got)-1]; !strings.Contains(last.resp.Error, proto.ErrBadMethod.Error()) {
				t.Errorf("unknown method answered %+v, want an ErrBadMethod refusal", last.resp)
			}
			if reference == nil {
				// Anchor the reference in the backend's own answers: the
				// probe, the at-carrying start, and the reconciled view.
				probe, started, views := got[1].resp, got[7].resp, got[9].resp.Views
				if !probe.Known || probe.Status != "queuing" || !probe.OK || !started.OK ||
					len(views) != 1 || views[0].Status != "running" {
					t.Fatalf("reference answers off: probe %+v, try_start_mate at %+v, views %+v", probe, started, views)
				}
				reference = got
				return
			}
			for i := range script {
				if !reflect.DeepEqual(got[i], reference[i]) {
					t.Errorf("step %d (%s): %+v, want %+v as through %s", i, script[i].req.Method, got[i], reference[i], stacks[0].name)
				}
			}
		})
	}
}

// TestLinkRetriesExactlyIdempotentMethods: for every method, a Link whose
// first attempt fails at the read stage — the request may have reached the
// peer — retries on a fresh connection exactly when proto.Idempotent says
// the method may be replayed. The table is the retry class of each method.
func TestLinkRetriesExactlyIdempotentMethods(t *testing.T) {
	for _, tc := range []struct {
		method     string
		idempotent bool
	}{
		{proto.MethodPing, true},
		{proto.MethodProbeMate, true},
		{proto.MethodGetMateJob, true},
		{proto.MethodGetMateStatus, true},
		{proto.MethodCanStartMate, true},
		{proto.MethodReconcile, true},
		{proto.MethodTryStartMate, false},
		{proto.MethodStartMate, false},
		{"bogus", false},
	} {
		t.Run(tc.method, func(t *testing.T) {
			if got := proto.Idempotent(tc.method); got != tc.idempotent {
				t.Fatalf("proto.Idempotent(%q) = %v, want %v", tc.method, got, tc.idempotent)
			}
			h := newHarness()
			h.onConn = func(c *fakeConn, method string) error {
				if c.id == 1 {
					return &proto.TransportError{Method: method, Stage: proto.StageRead, Err: errors.New("i/o timeout")}
				}
				return nil
			}
			l := newTestLink(h, nil)
			resp, err := l.Exchange(proto.Request{Method: tc.method, JobID: 5})
			wantDials, wantRetries := 1, 0
			if tc.idempotent {
				wantDials, wantRetries = 2, 1
			}
			if snap := l.Snapshot(); h.dialCount() != wantDials || snap.Retries != wantRetries {
				t.Fatalf("dials = %d, retries = %d; want %d and %d", h.dialCount(), snap.Retries, wantDials, wantRetries)
			}
			// A retried exchange returns the fresh connection's answer.
			if tc.idempotent && (err != nil || !resp.OK) {
				t.Fatalf("retried Exchange = %+v, %v; want the second connection's answer", resp, err)
			}
			if !tc.idempotent && proto.ErrorStage(err) != proto.StageRead {
				t.Fatalf("unretried Exchange error = %v, want the read-stage failure", err)
			}
		})
	}
}
