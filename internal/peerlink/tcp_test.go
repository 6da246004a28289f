package peerlink_test

import (
	"errors"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/peerlink"
	"cosched/internal/proto"
)

// tcpBackend is a minimal healthy Peer for the integration test.
type tcpBackend struct{}

func (tcpBackend) PeerName() string                { return "remote" }
func (tcpBackend) GetMateJob(job.ID) (bool, error) { return true, nil }
func (tcpBackend) GetMateStatus(job.ID) (cosched.MateStatus, error) {
	return cosched.StatusQueuing, nil
}
func (tcpBackend) CanStartMate(job.ID) (bool, error) { return true, nil }
func (tcpBackend) TryStartMate(job.ID) (bool, error) { return true, nil }
func (tcpBackend) StartMate(job.ID) error            { return nil }

// TestLinkRecoversAcrossServerRestartOverTCP drives a Link through the
// full outage lifecycle against a real proto.Server: healthy traffic, the
// server dies (breaker trips), fast-fails while down, then the server
// restarts on the same address and the half-open probe recovers the link.
func TestLinkRecoversAcrossServerRestartOverTCP(t *testing.T) {
	srv := proto.NewServer(tcpBackend{}, nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	l := peerlink.New(peerlink.Config{
		Name:          "remote",
		Addr:          addr.String(),
		DialTimeout:   time.Second,
		CallTimeout:   time.Second,
		FailThreshold: 2,
		Cooldown:      30 * time.Millisecond,
	})
	defer l.Close()

	if st, err := l.GetMateStatus(1); err != nil || st != cosched.StatusQueuing {
		t.Fatalf("healthy call = %v, %v", st, err)
	}

	// Kill the server. The established connection dies and redials hit a
	// closed port; within a few calls the breaker must trip.
	srv.Close()
	deadlineLoop(t, "breaker did not open after server death", func() bool {
		l.GetMateStatus(1)
		return l.State() == peerlink.Open
	})
	if _, err := l.GetMateStatus(1); err == nil {
		t.Fatal("call against dead server succeeded")
	}

	// Restart on the same address; the cooldown elapses and a probe closes
	// the breaker again.
	srv2 := proto.NewServer(tcpBackend{}, nil, nil)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	deadlineLoop(t, "link did not recover after server restart", func() bool {
		l.Probe()
		return l.State() == peerlink.Closed
	})
	if st, err := l.GetMateStatus(1); err != nil || st != cosched.StatusQueuing {
		t.Fatalf("post-recovery call = %v, %v", st, err)
	}
	snap := l.Snapshot()
	if snap.Trips == 0 || !snap.Connected {
		t.Fatalf("snapshot after recovery = %+v", snap)
	}
}

// TestLinkDialErrorIsTransport verifies the wire dialer classifies a
// refused connection as a dial-stage transport error, so callers can apply
// the Algorithm 1 "status unknown" rule uniformly.
func TestLinkDialErrorIsTransport(t *testing.T) {
	srv := proto.NewServer(tcpBackend{}, nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // free the port: dials now fail fast

	l := peerlink.New(peerlink.Config{
		Name:        "remote",
		Addr:        addr.String(),
		DialTimeout: 500 * time.Millisecond,
	})
	defer l.Close()
	_, err = l.GetMateStatus(1)
	if err == nil {
		t.Fatal("dial against closed port succeeded")
	}
	var te *proto.TransportError
	if !errors.As(err, &te) || te.Stage != proto.StageDial {
		t.Fatalf("err = %v, want dial-stage TransportError", err)
	}
	if proto.IsRemote(err) {
		t.Fatal("dial error classified as remote")
	}
}

// deadlineLoop polls cond for up to ~5s of real time.
func deadlineLoop(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cond() {
			return
		}
		//simlint:allow R2 pacing a real TCP outage/recovery loop; no simulation clock in this test
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}
