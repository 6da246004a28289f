// Crash-recovery and graceful-drain acceptance tests: real coschedd
// processes (re-execed test binary), real TCP, real SIGKILL/SIGTERM. The
// invariant under test is the paper's §V-B check carried across a daemon
// crash — every started pair co-starts at one instant, byte-verified from
// the event logs alone.
package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cosched/internal/eventlog"
	"cosched/internal/job"
	"cosched/internal/live"
	"cosched/internal/sim"
)

const (
	helperEnv     = "COSCHEDD_HELPER"
	helperArgsEnv = "COSCHEDD_ARGS"
)

// TestMain doubles as the daemon entry point: when re-execed with
// COSCHEDD_HELPER=1 the test binary runs a real coschedd instead of the
// test suite, so the crash tests exercise the exact runDaemon path.
func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		args := strings.Split(os.Getenv(helperArgsEnv), "\x1f")
		cfg, err := parseFlags(args, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coschedd helper: %v\n", err)
			os.Exit(2)
		}
		if err := runDaemon(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "coschedd helper: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one spawned coschedd process.
type daemon struct {
	cmd  *exec.Cmd
	done chan error
}

func startDaemon(t *testing.T, args []string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		helperEnv+"=1", helperArgsEnv+"="+strings.Join(args, "\x1f"))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			d.cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

// wait blocks until the process exits, re-buffering the exit status so a
// later wait (the registered cleanup) sees it instead of blocking forever.
func (d *daemon) wait() error {
	err := <-d.done
	d.done <- err
	return err
}

// kill9 is the crash: SIGKILL, no drain, no flush.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	d.wait()
}

// sigterm is the graceful shutdown and must reach a clean exit.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
}

// freeAddr reserves then frees a loopback port. The daemon must rebind the
// same address after a restart, so ":0" inside the daemon would not do.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialAdmin connects to a daemon's admin port, waiting for it to come up.
// The timeout is also each call's deadline, after which the client retires
// its connection; it must outlast -peer-timeout (2 s), because a daemon
// answers admin calls under the driver lock and can hold that lock across
// one peer call to the daemon this test has just killed or is restarting.
func dialAdmin(t *testing.T, addr string) *live.AdminClient {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := live.DialAdmin(addr, 5*time.Second)
		if err == nil {
			if _, err = c.Info(); err == nil {
				return c
			}
			c.Close()
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("admin %s never came up: %v", addr, lastErr)
	return nil
}

// waitState polls one job until it reaches any of the wanted states.
func waitState(t *testing.T, c *live.AdminClient, id job.ID, want ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	last := "(no response)"
	for time.Now().Before(deadline) {
		resp, err := c.Status(id)
		if err != nil {
			last = err.Error()
		} else {
			last = resp.State
			for _, w := range want {
				if resp.State == w {
					return
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %v (last: %s)", id, want, last)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// readLogs concatenates event logs tolerantly (a SIGKILL may tear a line).
func readLogs(t *testing.T, paths ...string) []eventlog.Record {
	t.Helper()
	var out []eventlog.Record
	for _, p := range paths {
		f, err := os.Open(p)
		must(t, err)
		recs, _, err := eventlog.Read(f)
		f.Close()
		must(t, err)
		out = append(out, recs...)
	}
	return out
}

// pairJobs builds the two halves of one A↔B coupled pair.
func pairJobs(id job.ID, nodes int, runtime sim.Duration) (a, b live.WireJob) {
	a = live.WireJob{
		ID: id, Nodes: nodes, Runtime: runtime, Walltime: 2 * runtime,
		Mates: []job.MateRef{{Domain: "B", Job: id}},
	}
	b = a
	b.Mates = []job.MateRef{{Domain: "A", Job: id}}
	return a, b
}

// TestCrashRecoveryAcceptance is the PR's acceptance scenario: a live
// coupled run where one daemon is SIGKILLed mid-flight with a completed
// pair, a restored hold, and a running job on the books; restarted on the
// same journal, it must recover all three, reconcile with its mate over
// the wire, co-start the pending pair, and leave event logs whose
// co-starts verify byte-exactly.
func TestCrashRecoveryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns live daemons")
	}
	tmp := t.TempDir()
	aPeer, aAdmin := freeAddr(t), freeAddr(t)
	bPeer, bAdmin := freeAddr(t), freeAddr(t)
	aLog := filepath.Join(tmp, "a.log")
	bLog := filepath.Join(tmp, "b.log")
	common := []string{
		"-nodes", "32", "-policy", "fcfs", "-scheme", "hold",
		"-release-minutes", "120", "-speedup", "200",
		"-journal-fsync", "0s", "-snapshot-every", "4",
	}
	aArgs := append([]string{
		"-name", "A", "-listen", aPeer, "-admin", aAdmin, "-peer", "B=" + bPeer,
		"-journal-dir", filepath.Join(tmp, "ja"), "-log", aLog,
	}, common...)
	bArgs := append([]string{
		"-name", "B", "-listen", bPeer, "-admin", bAdmin, "-peer", "A=" + aPeer,
		"-journal-dir", filepath.Join(tmp, "jb"), "-log", bLog,
	}, common...)

	da := startDaemon(t, aArgs)
	db := startDaemon(t, bArgs)
	ca := dialAdmin(t, aAdmin)
	cb := dialAdmin(t, bAdmin)

	// Pair 1 co-starts and completes before the crash. Submissions are
	// sequenced (A's half holds before B's arrives) so exactly one side
	// resolves the co-start — simultaneous submissions would have both
	// daemons coordinating against each other's busy scheduler.
	w1a, w1b := pairJobs(1, 8, 30)
	must(t, ca.Expect(w1a))
	must(t, cb.Expect(w1b))
	must(t, ca.Submit(w1a))
	waitState(t, ca, 1, "holding")
	must(t, cb.Submit(w1b))
	waitState(t, ca, 1, "completed")
	waitState(t, cb, 1, "completed")

	// Pair 2: only A's half is submitted, so A holds nodes for a mate that
	// is still expected on B. The hold must survive the crash.
	w2a, w2b := pairJobs(2, 8, 30)
	must(t, ca.Expect(w2a))
	must(t, cb.Expect(w2b))
	must(t, ca.Submit(w2a))
	waitState(t, ca, 2, "holding")

	// An unpaired filler keeps running through the crash.
	must(t, ca.Submit(live.WireJob{ID: 5, Nodes: 4, Runtime: 3600, Walltime: 7200}))
	waitState(t, ca, 5, "running")

	// Crash A hard and restart it on the same journal, log, and ports.
	ca.Close()
	da.kill9(t)
	da2 := startDaemon(t, aArgs)
	ca = dialAdmin(t, aAdmin)

	// Recovered books: pair 1 completed, the pair-2 hold kept (B's half is
	// still only expected, so reconciliation must not release it), filler
	// still running.
	waitState(t, ca, 1, "completed")
	waitState(t, ca, 2, "holding")
	waitState(t, ca, 5, "running")

	// B's half of pair 2 arrives; the restored hold co-starts with it over
	// the live protocol.
	must(t, cb.Submit(w2b))
	waitState(t, ca, 2, "running", "completed")
	waitState(t, cb, 2, "running", "completed")
	waitState(t, ca, 2, "completed")
	waitState(t, cb, 2, "completed")

	// Graceful shutdown of the restarted A and the original B, then verify
	// the whole run — crash included — from the logs alone.
	ca.Close()
	cb.Close()
	da2.sigterm(t)
	db.sigterm(t)

	recs := readLogs(t, aLog, bLog)
	if v := eventlog.VerifyCoStarts(recs); len(v) != 0 {
		t.Fatalf("co-start violations after crash recovery: %v", v)
	}
	stats := eventlog.Summarize(recs)
	if stats.Recoveries == 0 {
		t.Fatal("no recovery milestone in the event logs")
	}
	// The byte-exact check, spelled out: both start records of pair 2
	// carry one identical instant even though one side crashed in between.
	starts := map[string]sim.Time{}
	for _, r := range recs {
		if r.Kind == eventlog.KindStart && r.JobID == 2 {
			starts[r.Domain] = r.Time
		}
	}
	if len(starts) != 2 || starts["A"] != starts["B"] {
		t.Fatalf("pair 2 start instants not byte-identical: %v", starts)
	}
}

// TestGracefulDrainNotifiesPeers checks satellite behavior of the SIGTERM
// path: a draining daemon tells each peer its paired jobs are now
// status-unknown, so a remote hold waiting on one of them is released
// immediately (and, with the departed daemon unreachable, started normally
// under the paper's fault tolerance) instead of waiting out a release
// interval that is switched off here.
func TestGracefulDrainNotifiesPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns live daemons")
	}
	tmp := t.TempDir()
	aPeer, aAdmin := freeAddr(t), freeAddr(t)
	bPeer, bAdmin := freeAddr(t), freeAddr(t)
	bLog := filepath.Join(tmp, "b.log")
	common := []string{
		"-nodes", "32", "-policy", "fcfs", "-scheme", "hold",
		"-release-minutes", "0", "-speedup", "200",
	}
	aArgs := append([]string{
		"-name", "A", "-listen", aPeer, "-admin", aAdmin, "-peer", "B=" + bPeer,
		"-journal-dir", filepath.Join(tmp, "ja"), "-journal-fsync", "0s",
	}, common...)
	bArgs := append([]string{
		"-name", "B", "-listen", bPeer, "-admin", bAdmin, "-peer", "A=" + aPeer,
		"-log", bLog,
	}, common...)

	da := startDaemon(t, aArgs)
	db := startDaemon(t, bArgs)
	ca := dialAdmin(t, aAdmin)
	cb := dialAdmin(t, bAdmin)

	// B holds for A's half, which is expected but never submitted. With the
	// release scan off, only the drain notification can free this hold.
	w1a, w1b := pairJobs(1, 8, 60)
	must(t, ca.Expect(w1a))
	must(t, cb.Expect(w1b))
	must(t, cb.Submit(w1b))
	waitState(t, cb, 1, "holding")

	ca.Close()
	da.sigterm(t)

	waitState(t, cb, 1, "running", "completed")

	cb.Close()
	db.sigterm(t)

	recs := readLogs(t, bLog)
	released := false
	for _, r := range recs {
		if r.Domain == "B" && r.Kind == eventlog.KindRelease && r.JobID == 1 {
			released = true
		}
	}
	if !released {
		t.Fatal("no release record for B/1: the drain notification never reached the peer")
	}
}
