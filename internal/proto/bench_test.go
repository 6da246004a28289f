package proto

import (
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// The three benchmarks below time one peer call as a simulation makes it
// (EXPERIMENTS.md, "What a wire call costs"): the whole round trip through
// Server.InProcessConn, and the two parses inside it. Run them with
//
//	go test -run '^$' -bench 'RoundTrip|Parse' -benchmem ./internal/proto

// BenchmarkProbeRoundTripInProcess is one probe_mate over the transport a
// simulation uses, against a real resmgr.Manager whose job is running:
// request built and written, parsed and dispatched, response built, read
// and parsed.
func BenchmarkProbeRoundTripInProcess(b *testing.B) {
	eng := sim.NewEngine()
	mgr := resmgr.New(eng, resmgr.Options{
		Name: "B", Pool: cluster.New("B", 100),
		Policy: policy.FCFS{}, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold),
	})
	j := job.New(1, 10, 0, 600, 600)
	if err := mgr.SubmitAt(j); err != nil {
		b.Fatal(err)
	}
	eng.RunUntil(1)
	c := NewClient(NewServer(mgr, nil, nil).InProcessConn(), 0)
	want := cosched.MateProbe{Known: true, Status: cosched.StatusRunning, CanStart: true}
	b.ReportAllocs()
	for b.Loop() {
		if got, err := c.ProbeMate(j.ID); err != nil || got != want {
			b.Fatalf("ProbeMate = %+v, %v; want %+v", got, err, want)
		}
	}
}

// probeRequest and probeResponse are a probe_mate request and its answer
// as they cross the wire in a simulation.
var probeRequest, probeResponse = []byte(`{"seq":48213,"method":"probe_mate","job_id":104729}`),
	[]byte(`{"seq":48213,"known":true,"status":"queuing","ok":true}`)

// BenchmarkParseRequest is the server's parse of a probe_mate request.
func BenchmarkParseRequest(b *testing.B) {
	var at sim.Time
	b.ReportAllocs()
	for b.Loop() {
		var req Request
		if !parseRequest(probeRequest, &req, &at) || req.JobID != 104729 {
			b.Fatalf("parseRequest refused %q", probeRequest)
		}
	}
}

// BenchmarkParseResponse is the client's parse of a probe_mate answer.
func BenchmarkParseResponse(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		var resp Response
		if !parseResponse(probeResponse, &resp) || !resp.OK {
			b.Fatalf("parseResponse refused %q", probeResponse)
		}
	}
}
