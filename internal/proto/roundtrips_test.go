package proto_test

import (
	"bytes"
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

// frameLog records what crosses the client ends of a wire pair: the method
// of every request frame (one Write is one frame) and the two byte streams.
type frameLog struct {
	methods             []string
	requests, responses []byte
}

// loggedConn is the client end of a wire peer, recorded.
type loggedConn struct {
	net.Conn
	log *frameLog
}

func (c loggedConn) Write(p []byte) (int, error) {
	var req proto.Request
	if err := json.Unmarshal(p[4:], &req); err != nil {
		return 0, err
	}
	c.log.methods = append(c.log.methods, req.Method)
	c.log.requests = append(c.log.requests, p...)
	return c.Conn.Write(p)
}

func (c loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.responses = append(c.log.responses, p[:n]...)
	return n, err
}

// inProcess is the transport a simulation uses; overPipe is ServeConn on a
// goroutine behind net.Pipe, a socket's stand-in.
func inProcess(_ *testing.T, s *proto.Server) net.Conn { return s.InProcessConn() }

func overPipe(t *testing.T, s *proto.Server) net.Conn {
	clientEnd, serverEnd := net.Pipe()
	go s.ServeConn(serverEnd)
	t.Cleanup(func() {
		clientEnd.Close()
		s.Close()
	})
	return clientEnd
}

// wirePair builds two managers on one engine whose every peer call is a
// proto frame over a conn from connect, and returns the log of the frames
// that crossed in either direction.
func wirePair(t *testing.T, connect func(*testing.T, *proto.Server) net.Conn) (*sim.Engine, *resmgr.Manager, *resmgr.Manager, *frameLog) {
	t.Helper()
	eng := sim.NewEngine()
	mk := func(name string) *resmgr.Manager {
		return resmgr.New(eng, resmgr.Options{
			Name: name, Pool: cluster.New(name, 100),
			Policy: policy.FCFS{}, Backfilling: true, Cosched: cosched.DefaultConfig(cosched.Hold),
		})
	}
	a, b := mk("A"), mk("B")
	log := new(frameLog)
	wire := func(backend *resmgr.Manager) cosched.Peer {
		return proto.NewClient(loggedConn{connect(t, proto.NewServer(backend, nil, nil)), log}, 0)
	}
	a.AddPeer("B", wire(b))
	b.AddPeer("A", wire(a))
	return eng, a, b, log
}

func pairedJobs(submitA, submitB sim.Time) (ja, jb *job.Job) {
	ja = job.New(1, 10, submitA, 600, 600)
	jb = job.New(1, 10, submitB, 600, 600)
	ja.Mates = []job.MateRef{{Domain: "B", Job: jb.ID}}
	jb.Mates = []job.MateRef{{Domain: "A", Job: ja.ID}}
	return ja, jb
}

// pairScenarios are one pair's two ways to a co-start. With the three
// read-only queries folded into probe_mate, a hold-then-co-start pair costs
// three round trips (the plain calls cost six: job, status, can-start →
// hold; job, status, start_mate → co-start) and a co-start with a queuing
// mate costs two.
var pairScenarios = []struct {
	name    string
	submitB sim.Time // A's half is submitted at 0
	holds   int
	want    []string
}{
	// The mate arrives five minutes later: a hold at 0, a co-start at 300.
	{"hold then co-start", 300, 1,
		[]string{proto.MethodProbeMate, proto.MethodProbeMate, proto.MethodStartMate}},
	// Both halves arrive at one instant: the first scheduler to run finds
	// its mate queued and startable, so one probe and one try_start_mate
	// start the pair; the mate's scheduler then has nothing left to resolve.
	{"queuing mate co-start", 0, 0,
		[]string{proto.MethodProbeMate, proto.MethodTryStartMate}},
}

// runPairScenario plays one scenario over the given transport, checks the
// schedule, and returns the frames it put on the wire.
func runPairScenario(t *testing.T, submitB sim.Time, holds int, connect func(*testing.T, *proto.Server) net.Conn) *frameLog {
	t.Helper()
	eng, a, b, log := wirePair(t, connect)
	ja, jb := pairedJobs(0, submitB)
	if err := a.SubmitAt(ja); err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitAt(jb); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if ja.StartTime != submitB || jb.StartTime != submitB || ja.HoldCount+jb.HoldCount != holds {
		t.Fatalf("starts %d/%d, holds %d; want both at %d with %d hold(s)", ja.StartTime, jb.StartTime, ja.HoldCount+jb.HoldCount, submitB, holds)
	}
	return log
}

// TestRoundTripsPerPair counts the request frames Algorithm 1 puts on the
// wire for one pair.
func TestRoundTripsPerPair(t *testing.T) {
	for _, sc := range pairScenarios {
		t.Run(sc.name, func(t *testing.T) {
			log := runPairScenario(t, sc.submitB, sc.holds, inProcess)
			if !reflect.DeepEqual(log.methods, sc.want) {
				t.Fatalf("request frames = %v, want %v", log.methods, sc.want)
			}
		})
	}
}

// TestInProcessFramesEqualPipeFrames: the in-process conn is a transport,
// not a second protocol — the request and response bytes of each scenario
// are the bytes ServeConn exchanges for it over net.Pipe.
func TestInProcessFramesEqualPipeFrames(t *testing.T) {
	for _, sc := range pairScenarios {
		t.Run(sc.name, func(t *testing.T) {
			inproc := runPairScenario(t, sc.submitB, sc.holds, inProcess)
			pipe := runPairScenario(t, sc.submitB, sc.holds, overPipe)
			if len(inproc.requests) == 0 || len(inproc.responses) == 0 {
				t.Fatal("nothing recorded")
			}
			if !bytes.Equal(inproc.requests, pipe.requests) {
				t.Errorf("request bytes differ:\n in-process %q\n net.Pipe   %q", inproc.requests, pipe.requests)
			}
			if !bytes.Equal(inproc.responses, pipe.responses) {
				t.Errorf("response bytes differ:\n in-process %q\n net.Pipe   %q", inproc.responses, pipe.responses)
			}
		})
	}
}
