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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"cosched/internal/job"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
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

// daemonConfig is the validated flag set of one coschedd process.
type daemonConfig struct {
	name             string
	nodes            int
	minPart          int
	listen           string
	admin            string
	scheme           string
	releaseMin       int64
	maxHeld          float64
	maxYields        int
	polName          string
	backfill         bool
	speedup          float64
	timeout          time.Duration
	dialTO           time.Duration
	brkFails         int
	brkCool          time.Duration
	backoffLo        time.Duration
	backoffHi        time.Duration
	logPath          string
	statusAddr       string
	journalDir       string
	journalFS        time.Duration
	snapEvery        int
	degradedMaxHolds int
	peers            peerFlags
}

// parseFlags parses and validates a coschedd command line. Usage and error
// text from the flag package goes to usageOut.
func parseFlags(args []string, usageOut io.Writer) (*daemonConfig, error) {
	cfg := &daemonConfig{peers: peerFlags{}}
	fs := flag.NewFlagSet("coschedd", flag.ContinueOnError)
	fs.SetOutput(usageOut)
	fs.StringVar(&cfg.name, "name", "domain", "this domain's name")
	fs.IntVar(&cfg.nodes, "nodes", 64, "node count")
	fs.IntVar(&cfg.minPart, "min-partition", 0, "BG/P-style minimum partition (0 = plain pool)")
	fs.StringVar(&cfg.listen, "listen", ":7001", "peer-protocol listen address")
	fs.StringVar(&cfg.admin, "admin", ":7101", "admin (submit/status) listen address")
	fs.StringVar(&cfg.scheme, "scheme", "hold", "coscheduling scheme: hold or yield")
	fs.Int64Var(&cfg.releaseMin, "release-minutes", 20, "hold release interval in virtual minutes (0 = off)")
	fs.Float64Var(&cfg.maxHeld, "max-held-fraction", 1.0, "max fraction of nodes in hold state")
	fs.IntVar(&cfg.maxYields, "max-yields", 0, "yields before escalating to hold (0 = never)")
	fs.StringVar(&cfg.polName, "policy", "wfp", "queue policy: wfp, fcfs, sjf, largest")
	fs.BoolVar(&cfg.backfill, "backfill", true, "enable EASY backfilling")
	fs.Float64Var(&cfg.speedup, "speedup", 1.0, "virtual seconds per wall second")
	fs.DurationVar(&cfg.timeout, "peer-timeout", 2*time.Second, "per-call peer RPC budget (round trip + one retry)")
	fs.DurationVar(&cfg.dialTO, "peer-dial-timeout", 2*time.Second, "peer TCP connect timeout")
	fs.IntVar(&cfg.brkFails, "peer-breaker-fails", 3, "consecutive transport failures before the peer breaker opens")
	fs.DurationVar(&cfg.brkCool, "peer-breaker-cooldown", 5*time.Second, "how long an open peer breaker waits before probing")
	fs.DurationVar(&cfg.backoffLo, "peer-backoff-base", 50*time.Millisecond, "initial redial backoff (doubles per failure)")
	fs.DurationVar(&cfg.backoffHi, "peer-backoff-max", 10*time.Second, "redial backoff ceiling")
	fs.StringVar(&cfg.logPath, "log", "", "append a JSONL event log to this path (verifiable with cosim -verify-log)")
	fs.StringVar(&cfg.statusAddr, "status", "", "serve an HTML/JSON status page on this address (e.g. :8080)")
	fs.StringVar(&cfg.journalDir, "journal-dir", "", "write-ahead journal directory; enables crash recovery (empty = no journal)")
	fs.DurationVar(&cfg.journalFS, "journal-fsync", 0, "fsync batching interval for the journal (0 = sync every transition)")
	fs.IntVar(&cfg.snapEvery, "snapshot-every", 1024, "journal entries between compacting snapshots")
	fs.IntVar(&cfg.degradedMaxHolds, "degraded-max-holds", 0, "max concurrent holds while running journal-less after a storage fault (-1 = unlimited)")
	fs.Var(cfg.peers, "peer", "remote domain as name=addr (repeatable)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validate rejects configurations that would misbehave only later — a zero
// dial timeout fails every peer call instantly, a negative fsync interval
// is refused deep inside the journal, a zero backoff spins on a dead peer.
// Failing at startup names the flag instead.
func (c *daemonConfig) validate() error {
	if c.name == "" {
		return fmt.Errorf("-name must not be empty")
	}
	if c.nodes <= 0 {
		return fmt.Errorf("-nodes must be positive, got %d", c.nodes)
	}
	if c.minPart < 0 {
		return fmt.Errorf("-min-partition must be non-negative, got %d", c.minPart)
	}
	if c.releaseMin < 0 {
		return fmt.Errorf("-release-minutes must be non-negative, got %d", c.releaseMin)
	}
	if c.maxHeld <= 0 || c.maxHeld > 1 {
		return fmt.Errorf("-max-held-fraction must be in (0, 1], got %g", c.maxHeld)
	}
	if c.maxYields < 0 {
		return fmt.Errorf("-max-yields must be non-negative, got %d", c.maxYields)
	}
	if c.speedup <= 0 {
		return fmt.Errorf("-speedup must be positive, got %g", c.speedup)
	}
	if c.timeout <= 0 {
		return fmt.Errorf("-peer-timeout must be positive, got %v", c.timeout)
	}
	if c.dialTO <= 0 {
		return fmt.Errorf("-peer-dial-timeout must be positive, got %v", c.dialTO)
	}
	if c.brkFails <= 0 {
		return fmt.Errorf("-peer-breaker-fails must be positive, got %d", c.brkFails)
	}
	if c.brkCool <= 0 {
		return fmt.Errorf("-peer-breaker-cooldown must be positive, got %v", c.brkCool)
	}
	if c.backoffLo <= 0 {
		return fmt.Errorf("-peer-backoff-base must be positive, got %v", c.backoffLo)
	}
	if c.backoffHi <= 0 {
		return fmt.Errorf("-peer-backoff-max must be positive, got %v", c.backoffHi)
	}
	if c.backoffHi < c.backoffLo {
		return fmt.Errorf("-peer-backoff-max (%v) must be at least -peer-backoff-base (%v)",
			c.backoffHi, c.backoffLo)
	}
	if c.journalFS < 0 {
		return fmt.Errorf("-journal-fsync must be non-negative, got %v", c.journalFS)
	}
	if c.snapEvery <= 0 {
		return fmt.Errorf("-snapshot-every must be positive, got %d", c.snapEvery)
	}
	if c.degradedMaxHolds < -1 {
		return fmt.Errorf("-degraded-max-holds must be -1 (unlimited) or non-negative, got %d", c.degradedMaxHolds)
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
	if err := runDaemon(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "coschedd: %v\n", err)
		os.Exit(1)
	}
}

// logObserver prints job lifecycle events; peer decisions are not printed.
type logObserver struct {
	resmgr.NullObserver
	l *log.Logger
}

func (o logObserver) JobExpected(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d expect job %d (%d nodes)", now, j.ID, j.Nodes)
}
func (o logObserver) JobSubmitted(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d submit %s", now, j)
}
func (o logObserver) JobStarted(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d START job %d (wait %ds, sync %ds)", now, j.ID, j.WaitTime(), j.SyncTime())
}
func (o logObserver) JobCompleted(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d done job %d", now, j.ID)
}
func (o logObserver) JobHeld(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d HOLD job %d (%d nodes) waiting for mate", now, j.ID, j.Nodes)
}
func (o logObserver) JobYielded(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d YIELD job %d (count %d)", now, j.ID, j.YieldCount)
}
func (o logObserver) JobReleased(now sim.Time, j *job.Job, requeued bool) {
	o.l.Printf("t=%d RELEASE job %d (requeued=%v)", now, j.ID, requeued)
}
func (o logObserver) JobCancelled(now sim.Time, j *job.Job) {
	o.l.Printf("t=%d CANCEL job %d", now, j.ID)
}
