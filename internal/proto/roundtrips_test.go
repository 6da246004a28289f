package proto_test

import (
	"encoding/json"
	"net"
	"reflect"
	"testing"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// requestLog is the client end of a wire peer that records the method of
// every request frame written to it (one Write is one frame).
type requestLog struct {
	net.Conn
	methods *[]string
}

func (c requestLog) Write(p []byte) (int, error) {
	var req proto.Request
	if err := json.Unmarshal(p[4:], &req); err != nil {
		return 0, err
	}
	*c.methods = append(*c.methods, req.Method)
	return c.Conn.Write(p)
}

// wirePair builds two managers on one engine whose every peer call is a
// proto frame over net.Pipe, and returns the log of request frames sent in
// either direction.
func wirePair(t *testing.T, nodesB int) (*sim.Engine, *resmgr.Manager, *resmgr.Manager, *[]string) {
	t.Helper()
	eng := sim.NewEngine()
	mk := func(name string, nodes int) *resmgr.Manager {
		return resmgr.New(eng, resmgr.Options{
			Name: name, Pool: cluster.New(name, nodes),
			Policy: policy.FCFS{}, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold),
		})
	}
	a, b := mk("A", 100), mk("B", nodesB)
	sent := new([]string)
	wire := func(backend *resmgr.Manager) cosched.Peer {
		server := proto.NewServer(backend, nil, nil)
		clientEnd, serverEnd := net.Pipe()
		go server.ServeConn(serverEnd)
		client := proto.NewClient(requestLog{clientEnd, sent}, 0)
		t.Cleanup(func() {
			client.Close()
			server.Close()
		})
		return client
	}
	a.AddPeer("B", wire(b))
	b.AddPeer("A", wire(a))
	return eng, a, b, sent
}

func pairedJobs(submitA, submitB sim.Time) (ja, jb *job.Job) {
	ja = job.New(1, 10, submitA, 600, 600)
	jb = job.New(1, 10, submitB, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "B", Job: jb.ID}}
	jb.Mates = []job.MateRef{{Domain: "A", Job: ja.ID}}
	return ja, jb
}

// TestRoundTripsPerPair counts the request frames Algorithm 1 puts on the
// wire for one pair. With the three read-only queries folded into
// probe_mate, a hold-then-co-start pair costs three round trips (the plain
// calls cost six: job, status, can-start → hold; job, status, start_mate →
// co-start) and a co-start with a queuing mate costs two.
func TestRoundTripsPerPair(t *testing.T) {
	t.Run("hold then co-start", func(t *testing.T) {
		eng, a, b, sent := wirePair(t, 100)
		ja, jb := pairedJobs(0, 300) // the mate arrives five minutes later
		if err := a.SubmitAt(ja); err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitAt(jb); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if ja.StartTime != 300 || jb.StartTime != 300 || ja.HoldCount != 1 {
			t.Fatalf("starts %d/%d, holds %d; want a hold at 0 and a co-start at 300", ja.StartTime, jb.StartTime, ja.HoldCount)
		}
		want := []string{proto.MethodProbeMate, proto.MethodProbeMate, proto.MethodStartMate}
		if !reflect.DeepEqual(*sent, want) {
			t.Fatalf("request frames = %v, want %v", *sent, want)
		}
	})
	t.Run("queuing mate co-start", func(t *testing.T) {
		// Both halves arrive at one instant: the first scheduler to run
		// finds its mate queued and startable, so one probe and one
		// try_start_mate start the pair; the mate's scheduler then has
		// nothing left to resolve.
		eng, a, b, sent := wirePair(t, 100)
		ja, jb := pairedJobs(0, 0)
		if err := a.SubmitAt(ja); err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitAt(jb); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if ja.StartTime != 0 || jb.StartTime != 0 || ja.HoldCount+jb.HoldCount != 0 {
			t.Fatalf("starts %d/%d, holds %d; want both at 0 with no hold", ja.StartTime, jb.StartTime, ja.HoldCount+jb.HoldCount)
		}
		want := []string{proto.MethodProbeMate, proto.MethodTryStartMate}
		if !reflect.DeepEqual(*sent, want) {
			t.Fatalf("request frames = %v, want %v", *sent, want)
		}
	})
}
