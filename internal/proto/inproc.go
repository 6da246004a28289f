package proto

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"time"

	"cosched/internal/sim"
)

// InProcessConn returns the client end of a connection to s that has no
// other end: Write hands every complete request frame to Server.answer, the
// step ServeConn runs per frame, on the caller's goroutine, and Read drains
// the response frames it encoded. A Client on it exchanges the bytes it would
// over a socket with no goroutine to start, stop or leak, which is how a
// simulation (coupled.Options.UseWireProtocol) calls its peers. The conn
// belongs to one caller at a time — a Client's mutex is that; only Close may
// come from elsewhere.
func (s *Server) InProcessConn() net.Conn { return &inprocConn{server: s} }

type inprocConn struct {
	server *Server
	in     []byte       // request bytes that do not yet make a whole frame
	out    bytes.Buffer // response frames not yet read
	at     sim.Time     // every request's "at" decodes here
	closed atomic.Bool
}

// Write serves the frames p completes and keeps the rest for the next
// Write. A frame the server cannot parse, or an oversized one, fails the
// Write and closes the conn: ServeConn hangs up on those too.
func (c *inprocConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	c.in = append(c.in, p...)
	rest := c.in
	for len(rest) >= 4 {
		n := binary.BigEndian.Uint32(rest)
		if n > MaxFrameSize {
			c.closed.Store(true)
			return 0, ErrFrameTooLarge
		}
		if uint32(len(rest)-4) < n {
			break
		}
		if err := c.server.answer(rest[4:4+n], &c.out, &c.at); err != nil {
			c.closed.Store(true)
			return 0, err
		}
		rest = rest[4+n:]
	}
	c.in = c.in[:copy(c.in, rest)]
	return len(p), nil
}

// Read never waits: a response is encoded before the Write that asked for it
// returns, so with nothing pending none is coming and Read reports io.EOF.
func (c *inprocConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return c.out.Read(p)
}

func (c *inprocConn) Close() error {
	c.closed.Store(true)
	return nil
}

// Deadlines are accepted and ignored: nothing on this conn ever blocks, so
// there is nothing for one to bound.
func (c *inprocConn) SetDeadline(time.Time) error      { return nil }
func (c *inprocConn) SetReadDeadline(time.Time) error  { return nil }
func (c *inprocConn) SetWriteDeadline(time.Time) error { return nil }

func (c *inprocConn) LocalAddr() net.Addr  { return inprocAddr{} }
func (c *inprocConn) RemoteAddr() net.Addr { return inprocAddr{} }

type inprocAddr struct{}

func (inprocAddr) Network() string { return "inproc" }
func (inprocAddr) String() string  { return "inproc" }
