package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"cosched/internal/backfill"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/policy"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/schedbench"
	"cosched/internal/sim"
	"cosched/internal/workload"
)

// Isolated per-layer measurements: each calls one module's public function
// on a fixed input, several batches over, and reports the median batch. They
// run only in traced runs, on the workloads whose budget they explain.

// perOp runs batch() `batches` times and returns the median nanoseconds per
// operation, where one batch performs ops operations.
func perOp(batches, ops int, batch func()) float64 {
	ns := make([]float64, batches)
	for i := range ns {
		start := time.Now()
		batch()
		ns[i] = float64(time.Since(start)) / float64(ops)
	}
	return median(ns)
}

// microQueue is the queue depth of the scheduler-core measurements, the
// depth BENCH_sched.json and resmgr's BenchmarkIterate use.
const microQueue = 4000

// simBareNsPerEvent times the engine alone: a chain of no-op events, each
// scheduling the next.
func simBareNsPerEvent() float64 {
	const events = 1_000_000
	return perOp(5, events, func() {
		eng := sim.NewEngine()
		left := events
		var tick sim.Handler
		tick = func(sim.Time) {
			if left--; left > 0 {
				eng.After(1, sim.PriorityDefault, tick)
			}
		}
		eng.After(1, sim.PriorityDefault, tick)
		eng.Run()
	})
}

// iterateNs times Manager.Iterate on schedbench's blocked steady state:
// steady is the pure skip path, churn replaces one queued job between
// iterations so the queue and caches are invalidated.
func iterateNs() (steady, churn float64) {
	const iters = 2000
	eng, m, blocked, next := schedbench.Steady(resmgr.CoreIncremental, microQueue)
	now := eng.Now()
	steady = perOp(5, iters, func() {
		for i := 0; i < iters; i++ {
			m.Iterate(now)
		}
	})
	victim := 0
	churn = perOp(5, iters, func() {
		for i := 0; i < iters; i++ {
			blocked[victim], next = schedbench.Churn(m, blocked[victim], next)
			victim = (victim + 1) % len(blocked)
			m.Iterate(now)
		}
	})
	return steady, churn
}

// microJobs builds a deterministic queue of n jobs shaped like the
// Intrepid trace.
func microJobs(seed uint64, n int) ([]*job.Job, error) {
	spec := workload.IntrepidSpec(seed)
	spec.Jobs = n
	return workload.Generate(spec)
}

// backfillPlanNs times one EASY plan over an ordered 4k queue against 512
// pending releases in the blocked state a loaded simulation spends most
// iterations in: fewer nodes free than the smallest job needs, so the head
// job gets a reservation and every later job is examined and rejected.
func backfillPlanNs(seed uint64) (float64, error) {
	const iters = 200
	queue, err := microJobs(seed, microQueue)
	if err != nil {
		return 0, err
	}
	rng := workload.NewRNG(seed)
	releases := make([]backfill.Release, 512)
	for i := range releases {
		releases[i] = backfill.Release{Nodes: 64, EndBy: sim.Time(rng.Intn(int(12 * sim.Hour)))}
	}
	charge := func(n int) int { return n }
	var dst []backfill.Decision
	return perOp(5, iters, func() {
		backfill.SortReleases(releases) // the planners require the canonical order
		for i := 0; i < iters; i++ {
			dst = backfill.PlanInto(dst, queue, 511, charge, releases, 0, true, nil)
		}
	}), nil
}

// policyOrderNs times one WFP ordering of a 4k queue.
func policyOrderNs(seed uint64) (float64, error) {
	const iters = 200
	queue, err := microJobs(seed, microQueue)
	if err != nil {
		return 0, err
	}
	var o policy.Orderer
	now := queue[len(queue)-1].SubmitTime + sim.Hour
	return perOp(5, iters, func() {
		for i := 0; i < iters; i++ {
			o.Order(policy.WFP{}, queue, now, nil)
		}
	}), nil
}

// pairFrames are the request/response frames one hold-then-co-start pair
// puts on the wire: three calls from the holder's side, three from the
// resolver's (the last carrying the proposed co-start instant).
func pairFrames() []any {
	at := sim.Time(1234)
	return []any{
		&proto.Request{Seq: 1, Method: proto.MethodGetMateJob, JobID: 4242}, &proto.Response{Seq: 1, Known: true},
		&proto.Request{Seq: 2, Method: proto.MethodGetMateStatus, JobID: 4242}, &proto.Response{Seq: 2, Status: cosched.StatusUnsubmitted.String()},
		&proto.Request{Seq: 3, Method: proto.MethodCanStartMate, JobID: 4242}, &proto.Response{Seq: 3},
		&proto.Request{Seq: 4, Method: proto.MethodGetMateJob, JobID: 4242}, &proto.Response{Seq: 4, Known: true},
		&proto.Request{Seq: 5, Method: proto.MethodGetMateStatus, JobID: 4242}, &proto.Response{Seq: 5, Status: cosched.StatusHolding.String()},
		&proto.Request{Seq: 6, Method: proto.MethodStartMate, JobID: 4242, At: &at}, &proto.Response{Seq: 6},
	}
}

// frameCodec times proto.WriteFrame and proto.ReadFrame over pairFrames.
func frameCodec() (encodeNs, decodeNs, bytesPerFrame float64, err error) {
	const iters = 2000
	frames := pairFrames()
	var buf bytes.Buffer
	encodeNs = perOp(5, iters*len(frames), func() {
		for i := 0; i < iters; i++ {
			buf.Reset()
			for _, f := range frames {
				if werr := proto.WriteFrame(&buf, f); werr != nil {
					err = werr
				}
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	wire := append([]byte(nil), buf.Bytes()...)
	bytesPerFrame = float64(len(wire)) / float64(len(frames))
	decodeNs = perOp(5, iters*len(frames), func() {
		for i := 0; i < iters; i++ {
			r := bytes.NewReader(wire)
			for j := range frames {
				var rerr error
				if j%2 == 0 {
					rerr = proto.ReadFrame(r, new(proto.Request))
				} else {
					rerr = proto.ReadFrame(r, new(proto.Response))
				}
				if rerr != nil {
					err = rerr
				}
			}
		}
	})
	return encodeNs, decodeNs, bytesPerFrame, err
}

// stubPeer answers every coordination call at once: behind a proto.Server
// it leaves only the protocol and the transport to time.
type stubPeer struct{}

func (stubPeer) PeerName() string                  { return "stub" }
func (stubPeer) GetMateJob(job.ID) (bool, error)   { return true, nil }
func (stubPeer) CanStartMate(job.ID) (bool, error) { return true, nil }
func (stubPeer) TryStartMate(job.ID) (bool, error) { return true, nil }
func (stubPeer) StartMate(job.ID) error            { return nil }
func (stubPeer) GetMateStatus(job.ID) (cosched.MateStatus, error) {
	return cosched.StatusHolding, nil
}

// callUs returns the median round-trip time in microseconds of one
// GetMateStatus call through client.
func callUs(client *proto.Client) (float64, error) {
	const calls = 3000
	durs := make([]time.Duration, 0, calls)
	for i := 0; i < calls+200; i++ {
		start := time.Now()
		if _, err := client.GetMateStatus(1); err != nil {
			return 0, err
		}
		if i >= 200 { // the first calls warm the connection and the codec
			durs = append(durs, time.Since(start))
		}
	}
	return percentile(inUnits(durs, time.Microsecond), 50), nil
}

// pipeCallUs times a proto.Client call against a stub-backed proto.Server
// over net.Pipe, the transport coupled.Options.UseWireProtocol uses.
func pipeCallUs() (float64, error) {
	srv := proto.NewServer(stubPeer{}, nil, nil)
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	client := proto.NewClient(clientEnd, 0)
	us, err := callUs(client)
	client.Close()
	srv.Close()
	return us, err
}

// tcpCallUs is pipeCallUs over loopback TCP, the transport between live
// daemons.
func tcpCallUs() (float64, error) {
	srv := proto.NewServer(stubPeer{}, nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("stub server: %w", err)
	}
	defer srv.Close()
	client, err := proto.Dial(addr.String(), 2*time.Second)
	if err != nil {
		return 0, fmt.Errorf("stub dial: %w", err)
	}
	defer client.Close()
	return callUs(client)
}
