package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// requestFrame is the bytes a Client writes for req.
func requestFrame(t *testing.T, req Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantSeqs reads len(seqs) response frames from conn and then expects the
// conn to report that nothing more is pending.
func wantSeqs(t *testing.T, conn net.Conn, seqs ...uint64) {
	t.Helper()
	frames := NewFrameReader(conn)
	for _, seq := range seqs {
		var resp Response
		if err := frames.ReadFrame(&resp); err != nil || resp.Seq != seq || resp.Domain != "fake" {
			t.Fatalf("response = %+v, %v; want seq %d from fake", resp, err, seq)
		}
	}
	if n, err := conn.Read(make([]byte, 16)); n != 0 || err != io.EOF {
		t.Fatalf("Read with nothing pending = %d, %v; want 0, io.EOF", n, err)
	}
}

// echoReconciler answers reconcile_mates with the views it was sent.
type echoReconciler struct{ *fakeBackend }

func (echoReconciler) ReconcileMates(_ string, views []cosched.MateView) ([]cosched.MateView, error) {
	return views, nil
}

// corruptingConn breaks the JSON of every frame written through it.
type corruptingConn struct{ net.Conn }

func (c corruptingConn) Write(p []byte) (int, error) {
	bad := append([]byte(nil), p...)
	bad[4] = '!'
	return c.Conn.Write(bad)
}

// TestInProcessConnContract pins what a Client may rely on from
// Server.InProcessConn: stream semantics on both sides (frames may arrive
// split or coalesced, responses may be read in pieces), no call that blocks,
// and a hang-up on a frame the server cannot parse.
func TestInProcessConnContract(t *testing.T) {
	newConn := func() net.Conn { return NewServer(newFakeBackend(), nil, nil).InProcessConn() }
	ping1 := requestFrame(t, Request{Seq: 1, Method: MethodPing})
	ping2 := requestFrame(t, Request{Seq: 2, Method: MethodPing})

	t.Run("frame split across two writes", func(t *testing.T) {
		conn := newConn()
		if n, err := conn.Write(ping1[:3]); n != 3 || err != nil { // mid-header
			t.Fatalf("Write = %d, %v", n, err)
		}
		wantSeqs(t, conn) // an incomplete frame is answered by nothing
		if n, err := conn.Write(ping1[3:]); n != len(ping1)-3 || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		wantSeqs(t, conn, 1)
	})
	t.Run("two frames and a half in one write", func(t *testing.T) {
		conn := newConn()
		ping3 := requestFrame(t, Request{Seq: 3, Method: MethodPing})
		all := append(append(append([]byte(nil), ping1...), ping2...), ping3[:9]...)
		if n, err := conn.Write(all); n != len(all) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		wantSeqs(t, conn, 1, 2)
		if _, err := conn.Write(ping3[9:]); err != nil {
			t.Fatal(err)
		}
		wantSeqs(t, conn, 3)
	})
	t.Run("large response read in pieces", func(t *testing.T) {
		views := make([]cosched.MateView, 300)
		for i := range views {
			views[i] = cosched.MateView{Local: job.ID(i + 1), Mate: job.ID(1000 + i), Status: cosched.StatusHolding, Start: sim.Time(i)}
		}
		server := NewServer(echoReconciler{newFakeBackend()}, nil, nil)
		// Through a Client, whose bufio.Reader takes at most 4096 at a time.
		got, err := NewClient(server.InProcessConn(), 0).ReconcileMates("a", views)
		if err != nil || !reflect.DeepEqual(got, views) {
			t.Fatalf("ReconcileMates over the conn: %d views, %v; want the %d sent", len(got), err, len(views))
		}
		// And raw, 1000 bytes a Read.
		conn := server.InProcessConn()
		if _, err := conn.Write(requestFrame(t, Request{Seq: 1, Method: MethodReconcile, From: "a", Views: ViewsToWire(views)})); err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		piece := make([]byte, 1000)
		reads := 0
		for {
			n, err := conn.Read(piece)
			stream.Write(piece[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			reads++
		}
		var resp Response
		if err := ReadFrame(&stream, &resp); err != nil || len(resp.Views) != len(views) || stream.Len() != 0 {
			t.Fatalf("reassembled response: %d views, %v, %d bytes over", len(resp.Views), err, stream.Len())
		}
		if reads < 5 {
			t.Fatalf("response took %d reads of 1000 bytes; want one larger than bufio's 4096", reads)
		}
	})
	t.Run("closed", func(t *testing.T) {
		conn := newConn()
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(ping1); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Write after Close: %v, want net.ErrClosed", err)
		}
		if _, err := conn.Read(make([]byte, 16)); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Read after Close: %v, want net.ErrClosed", err)
		}
	})
	t.Run("malformed frame", func(t *testing.T) {
		conn := newConn()
		if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("oversized header: %v, want ErrFrameTooLarge", err)
		}
		if _, err := conn.Write(ping1); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Write after a refused frame: %v; want the conn hung up", err)
		}
		c := NewClient(corruptingConn{newConn()}, 0)
		_, err := c.Ping()
		var te *TransportError
		if !errors.As(err, &te) || te.Stage != StageWrite || !c.Broken() {
			t.Fatalf("Ping through a corrupting conn: %v, broken=%v; want a write-stage TransportError and a broken client", err, c.Broken())
		}
		if _, err := c.Ping(); !errors.Is(err, ErrBrokenConn) {
			t.Fatalf("call on the broken client: %v, want ErrBrokenConn", err)
		}
	})
	t.Run("deadlines", func(t *testing.T) {
		conn := newConn()
		past := time.Unix(1, 0)
		if conn.SetDeadline(past) != nil || conn.SetReadDeadline(past) != nil || conn.SetWriteDeadline(past) != nil {
			t.Fatal("a deadline was refused")
		}
		// Nothing blocks, so even a deadline long past bounds nothing.
		if name, err := NewClient(conn, time.Nanosecond).Ping(); err != nil || name != "fake" {
			t.Fatalf("Ping with a 1 ns call timeout = %q, %v", name, err)
		}
	})
}

// TestInProcessBuffersStayBounded: the conn's input and output and the
// client's write buffer are each reused from one round trip to the next.
// AllocsPerRun cannot see a buffer that keeps its capacity by never being
// reset — it grows by doubling, so its average over a run rounds to 0 —
// but its capacity keeps climbing with the round trips.
func TestInProcessBuffersStayBounded(t *testing.T) {
	backend := &coStartBackend{fakeBackend: newFakeBackend()}
	backend.statuses[7] = cosched.StatusQueuing
	conn := NewServer(backend, nil, nil).InProcessConn().(*inprocConn)
	c := NewClient(conn, 0)
	caps := func() [3]int { return [3]int{cap(conn.in), cap(conn.out), cap(c.out)} }
	var tenth [3]int
	for i := 1; i <= 10000; i++ {
		if _, err := c.ProbeMate(7); err != nil {
			t.Fatal(err)
		}
		if err := c.StartMateAt(7, sim.Time(i)); err != nil || backend.at != sim.Time(i) {
			t.Fatalf("start_mate at %d: %v; the backend saw %d", i, err, backend.at)
		}
		if i == 10 {
			tenth = caps()
		}
	}
	if got := caps(); got != tenth {
		t.Fatalf("capacities of conn input, conn output, client output = %v after 10,000 round trips, %v after 10", got, tenth)
	}
}
