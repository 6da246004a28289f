// Liveprotocol: two resource-manager daemons coordinating over real TCP.
//
// This example exercises the non-simulated path: two managers run against
// the wall clock (accelerated 60×), each serving the lightweight
// coordination protocol on a real TCP socket, exactly as cmd/coschedd
// does. A paired job is submitted to each side 5 virtual minutes apart;
// the hold scheme parks the early job's nodes until its mate arrives, and
// both start at the same virtual instant.
//
// Run with:
//
//	go run ./examples/liveprotocol
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cosched/internal/config"
	"cosched/internal/job"
	"cosched/internal/live"
	"cosched/internal/sim"
)

// startDaemon starts one daemon on loopback, its virtual clock one minute
// per wall second — the daemon cmd/coschedd runs, built from the same
// configuration.
func startDaemon(name string, nodes int, scheme string) *live.Daemon {
	d, err := live.Start(live.Config{
		Domain: config.Domain{
			Name: name, Nodes: nodes, Backfilling: true,
			Scheme: scheme, ReleaseMinutes: 20, MaxHeldFraction: 1,
		},
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0", Speedup: 60,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return d
}

func main() {
	hpc := startDaemon("hpc", 512, "hold")
	viz := startDaemon("viz", 32, "yield")

	// Cross-wire the peers over TCP through resilient links: lazy dialing
	// (either daemon could have started first) and a circuit breaker so a
	// dead partner costs microseconds, not a dial timeout per scheduling
	// iteration.
	hpcToViz := hpc.Connect("viz", viz.PeerAddr())
	viz.Connect("hpc", hpc.PeerAddr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go hpc.Run(ctx)
	go viz.Run(ctx)

	fmt.Printf("liveprotocol: hpc daemon (peer %s) + viz daemon (peer %s), 60x wall clock\n",
		hpc.PeerAddr(), viz.PeerAddr())

	// Submit the compute half of the pair now...
	hpcAdmin, err := live.DialAdmin(hpc.AdminAddr(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer hpcAdmin.Close()
	vizAdmin, err := live.DialAdmin(viz.AdminAddr(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer vizAdmin.Close()

	const pairID = job.ID(1)
	// Declare the viz half on its daemon before anything is submitted, so
	// the hpc side sees "unsubmitted" (and holds) rather than "unknown"
	// (and starts alone) — the co-submission protocol cmd/cosubmit uses.
	if err := vizAdmin.Expect(live.WireJob{
		ID: pairID, Name: "covis", Nodes: 8,
		Runtime: 10 * sim.Minute, Walltime: 20 * sim.Minute,
		Mates: []job.MateRef{{Domain: "hpc", Job: pairID}},
	}); err != nil {
		log.Fatal(err)
	}
	if err := hpcAdmin.Submit(live.WireJob{
		ID: pairID, Name: "simulation", Nodes: 256,
		Runtime: 10 * sim.Minute, Walltime: 20 * sim.Minute,
		Mates: []job.MateRef{{Domain: "viz", Job: pairID}},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  submitted simulation (256 nodes) to hpc — it will HOLD for its mate")

	// ...and the analysis half 5 virtual minutes (5 wall seconds) later.
	time.Sleep(5 * time.Second)
	if err := vizAdmin.Submit(live.WireJob{
		ID: pairID, Name: "covis", Nodes: 8,
		Runtime: 10 * sim.Minute, Walltime: 20 * sim.Minute,
		Mates: []job.MateRef{{Domain: "hpc", Job: pairID}},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  submitted covis (8 nodes) to viz 5 virtual minutes later")

	// Poll both admins until the pair starts.
	deadline := time.Now().Add(30 * time.Second)
	for {
		hs, err1 := hpcAdmin.Status(pairID)
		vs, err2 := vizAdmin.Status(pairID)
		if err1 == nil && err2 == nil && hs.Started && vs.Started {
			fmt.Printf("  CO-START over live TCP: hpc job at virtual t=%ds, viz job at virtual t=%ds\n",
				hs.StartTime, vs.StartTime)
			if hs.StartTime == vs.StartTime {
				fmt.Println("  start instants identical — the protocol held the pair together")
			}
			hj, err := hpcAdmin.Status(pairID)
			if err != nil {
				hj = hs // the poll above just succeeded; fall back to it
			}
			fmt.Printf("  states now: hpc=%s viz=%s\n", hj.State, vs.State)
			ls := hpcToViz.Snapshot()
			fmt.Printf("  hpc->viz link: %s, %d calls (%d ok), %d dials, %d breaker trips\n",
				ls.State, ls.Calls, ls.Successes, ls.Dials, ls.Trips)
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("timed out waiting for co-start")
		}
		time.Sleep(200 * time.Millisecond)
	}
}
