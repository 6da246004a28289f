package proto

import (
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"time"

	"cosched/internal/sim"
)

// InProcessConn returns the client end of a connection to s that has no
// other end: Write hands every complete request frame to Server.answer, the
// step ServeConn runs per frame, on the caller's goroutine, and Read drains
// the response frames it appended to the conn's output. A Client on it
// exchanges the bytes it would over a socket with no goroutine to start,
// stop or leak, which is how a simulation (coupled.Options.UseWireProtocol)
// calls its peers. The conn belongs to one caller at a time — a Client's
// mutex is that; only Close may come from elsewhere.
func (s *Server) InProcessConn() net.Conn {
	c := &inprocConn{server: s}
	c.out = c.inline[:0]
	return c
}

type inprocConn struct {
	server *Server
	in     []byte // request bytes that do not yet make a whole frame
	out    []byte // response frames, of which out[read:] are not yet read
	read   int
	inline [inlineFrame]byte // out's storage until a response outgrows it
	at     sim.Time          // every request's "at" decodes here
	closed atomic.Bool
}

// Write serves the frames p completes and keeps the rest for the next
// Write. A Client writes whole frames, so p is served in place and nothing
// is kept. A frame the server cannot parse, or an oversized one, fails the
// Write and closes the conn: ServeConn hangs up on those too.
func (c *inprocConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	rest := p
	if len(c.in) > 0 {
		c.in = append(c.in, p...)
		rest = c.in
	}
	for len(rest) >= 4 {
		n := binary.BigEndian.Uint32(rest)
		if n > MaxFrameSize {
			c.closed.Store(true)
			return 0, ErrFrameTooLarge
		}
		if uint32(len(rest)-4) < n {
			break
		}
		var err error
		if c.out, err = c.server.answer(c.out, rest[4:4+n], &c.at); err != nil {
			c.closed.Store(true)
			return 0, err
		}
		rest = rest[4+n:]
	}
	c.in = append(c.in[:0], rest...)
	return len(p), nil
}

// Read never waits: a response is encoded before the Write that asked for it
// returns, so with nothing pending none is coming and Read reports io.EOF.
// Once every response is read the output starts over, in the conn's own
// storage if it had outgrown maxPooledFrame.
func (c *inprocConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	if c.read == len(c.out) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(p, c.out[c.read:])
	if c.read += n; c.read == len(c.out) {
		c.out, c.read = reuseFrame(c.out, c.inline[:]), 0
	}
	return n, nil
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
