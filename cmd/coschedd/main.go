// Command coschedd runs one scheduling domain as a live daemon: the same
// resource manager the simulator uses, paced against the wall clock,
// serving the coscheduling peer protocol on one TCP port and an admin
// (submit/status) interface on another.
//
// Two daemons coordinate paired jobs exactly as the paper's coupled
// systems do — no global portal, no shared configuration, just the
// lightweight protocol:
//
//	coschedd -name intrepid -nodes 40960 -listen :7001 -admin :7101 \
//	         -peer eureka=localhost:7002 -scheme hold
//	coschedd -name eureka -nodes 100 -listen :7002 -admin :7102 \
//	         -peer intrepid=localhost:7001 -scheme yield
//
// Then submit a pair with cmd/cosubmit. The -speedup flag accelerates
// virtual time for demos (60 = one virtual minute per wall second).
//
// With -journal-dir the daemon is crash-safe: every manager transition is
// written ahead to a checksummed journal, and a restarted daemon replays
// the journal, re-installs its jobs, and reconciles in-flight pairs with
// its peers (see ARCHITECTURE.md §8).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cosched/internal/live"
)

// peerFlags collects repeated -peer name=addr flags.
type peerFlags map[string]string

func (p peerFlags) String() string { return fmt.Sprintf("%v", map[string]string(p)) }

func (p peerFlags) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("want name=addr, got %q", v)
	}
	p[name] = addr
	return nil
}

// parseFlags parses and validates a coschedd command line into the daemon's
// configuration, one field per flag. Usage and error text from the flag
// package goes to usageOut.
func parseFlags(args []string, usageOut io.Writer) (*live.Config, error) {
	// The scheduling flags fill the embedded config.Domain, the keys of a
	// cmd/cosim domain under the flags' names.
	cfg := &live.Config{Peers: map[string]string{}}
	fs := flag.NewFlagSet("coschedd", flag.ContinueOnError)
	fs.SetOutput(usageOut)
	fs.StringVar(&cfg.Name, "name", "domain", "this domain's name")
	fs.IntVar(&cfg.Nodes, "nodes", 64, "node count")
	fs.IntVar(&cfg.MinPartition, "min-partition", 0, "BG/P-style minimum partition (0 = plain pool)")
	fs.StringVar(&cfg.Listen, "listen", ":7001", "peer-protocol listen address")
	fs.StringVar(&cfg.Admin, "admin", ":7101", "admin (submit/status) listen address")
	fs.StringVar(&cfg.Scheme, "scheme", "hold", "coscheduling scheme: hold or yield")
	fs.Int64Var(&cfg.ReleaseMinutes, "release-minutes", 20, "hold release interval in virtual minutes (0 = off)")
	fs.Float64Var(&cfg.MaxHeldFraction, "max-held-fraction", 1.0, "max fraction of nodes in hold state")
	fs.IntVar(&cfg.MaxYields, "max-yields", 0, "yields before escalating to hold (0 = never)")
	fs.StringVar(&cfg.Policy, "policy", "wfp", "queue policy: wfp, fcfs, sjf, largest, fairshare")
	fs.BoolVar(&cfg.Backfilling, "backfill", true, "enable EASY backfilling")
	fs.Float64Var(&cfg.Speedup, "speedup", 1.0, "virtual seconds per wall second")
	fs.DurationVar(&cfg.PeerTimeout, "peer-timeout", 2*time.Second, "per-call peer RPC budget (round trip + one retry)")
	fs.StringVar(&cfg.Status, "status", "", "serve an HTML/JSON status page on this address (e.g. :8080)")
	fs.StringVar(&cfg.JournalDir, "journal-dir", "", "write-ahead journal directory; enables crash recovery (empty = no journal)")
	fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", 1024, "fewest journal entries between compacting snapshots; a snapshot also waits until the log since the last one is as large as it")
	fs.IntVar(&cfg.DegradedMaxHolds, "degraded-max-holds", 0, "max concurrent holds while running journal-less after a storage fault (-1 = unlimited)")
	fs.Var(peerFlags(cfg.Peers), "peer", "remote domain as name=addr (repeatable)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validate rejects configurations that would misbehave only later — a zero
// peer timeout fails every peer call instantly, a zero snapshot cadence is
// silently replaced deep inside the journal. Failing at startup names the
// flag instead.
func validate(c *live.Config) error {
	for _, r := range []struct {
		bad bool
		err string
	}{
		{c.Name == "", "-name must not be empty"},
		{c.Nodes <= 0, fmt.Sprintf("-nodes must be positive, got %d", c.Nodes)},
		{c.MinPartition < 0, fmt.Sprintf("-min-partition must be non-negative, got %d", c.MinPartition)},
		{c.ReleaseMinutes < 0, fmt.Sprintf("-release-minutes must be non-negative, got %d", c.ReleaseMinutes)},
		{c.MaxHeldFraction <= 0 || c.MaxHeldFraction > 1, fmt.Sprintf("-max-held-fraction must be in (0, 1], got %g", c.MaxHeldFraction)},
		{c.MaxYields < 0, fmt.Sprintf("-max-yields must be non-negative, got %d", c.MaxYields)},
		{c.Speedup <= 0, fmt.Sprintf("-speedup must be positive, got %g", c.Speedup)},
		{c.PeerTimeout <= 0, fmt.Sprintf("-peer-timeout must be positive, got %v", c.PeerTimeout)},
		{c.SnapshotEvery <= 0, fmt.Sprintf("-snapshot-every must be positive, got %d", c.SnapshotEvery)},
		{c.DegradedMaxHolds < -1, fmt.Sprintf("-degraded-max-holds must be -1 (unlimited) or non-negative, got %d", c.DegradedMaxHolds)},
	} {
		if r.bad {
			return errors.New(r.err)
		}
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintf(os.Stderr, "coschedd: %v\n", err)
		os.Exit(2)
	}
	if err := run(*cfg); err != nil {
		fmt.Fprintf(os.Stderr, "coschedd: %v\n", err)
		os.Exit(1)
	}
}

// run serves one daemon until SIGINT/SIGTERM, then drains.
func run(cfg live.Config) error {
	d, err := live.Start(cfg, log.New(os.Stderr, fmt.Sprintf("[%s] ", cfg.Name), log.LstdFlags))
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d.Run(ctx)
	return nil
}
