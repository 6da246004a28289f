package proto

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is the Exchanger over a single connection, and speaks the typed
// vocabulary through its Caller. Calls are serialized (one outstanding
// request at a time), matching the synchronous structure of Algorithm 1.
// Safe for concurrent use.
//
// A Client is single-use with respect to transport failures: after any
// read/write/deadline error the connection may hold a stale, half-read, or
// late response, so the client marks itself broken, closes the conn, and
// fails every later call instantly with a StageBroken TransportError
// wrapping ErrBrokenConn. Without this, one timed-out call would desync
// the request/response pairing and every subsequent call would die on a
// "sequence mismatch" against the previous call's late answer. Callers
// that want to survive transport failures redial (see internal/peerlink).
type Client struct {
	Caller
	mu      sync.Mutex
	conn    net.Conn
	frames  *FrameReader      // buffered reads of conn
	out     []byte            // the request frame being written; reused by every call
	inline  [inlineFrame]byte // out's storage until a frame outgrows it
	seq     uint64
	timeout time.Duration
	domain  string // learned from the last ping; "" until then
	broken  bool
}

// NewClient wraps conn. timeout bounds each round trip; 0 means no
// deadline (a Server.InProcessConn never blocks; a net.Pipe inside a
// single-threaded test has nothing to time out against).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	c := &Client{conn: conn, frames: NewFrameReader(conn), timeout: timeout}
	c.out = c.inline[:0]
	c.Caller = Caller{c}
	return c
}

// Dial connects to a coscheduling daemon over TCP. timeout bounds both the
// TCP connect and each round trip; DialTimeouts splits the two.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialTimeouts(addr, timeout, timeout)
}

// DialTimeouts connects to a coscheduling daemon over TCP with separate
// bounds for the TCP connect (dialTimeout) and each round trip
// (callTimeout, 0 = no deadline). The connection is verified with a Ping.
func DialTimeouts(addr string, dialTimeout, callTimeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, &TransportError{Stage: StageDial, Err: fmt.Errorf("dial %s: %w", addr, err)}
	}
	c := NewClient(conn, callTimeout)
	if _, err := c.Ping(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether an earlier transport failure retired this client.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// breakLocked retires the client after a transport failure: the conn is
// closed (draining any in-flight stale response into the void) and every
// later call fails fast with ErrBrokenConn.
func (c *Client) breakLocked(method, stage string, err error) error {
	c.broken = true
	c.conn.Close()
	return &TransportError{Method: method, Stage: stage, Err: err}
}

// Exchange implements Exchanger: one round trip on the connection.
func (c *Client) Exchange(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return Response{}, &TransportError{Method: req.Method, Stage: StageBroken, Err: ErrBrokenConn}
	}
	c.seq++
	req.Seq = c.seq
	if c.timeout > 0 {
		//simlint:allow R2 wire I/O deadline on a real socket; unrelated to simulation time
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return Response{}, c.breakLocked(req.Method, StageDeadline, err)
		}
	}
	// The typed forms of WriteFrame and FrameReader.ReadFrame: req and resp
	// stay on the stack and the frame is built in the client's own buffer,
	// so a round trip allocates nothing.
	frame, err := appendRequestFrame(c.out, &req)
	if err == nil {
		_, err = c.conn.Write(frame)
	}
	c.out = reuseFrame(frame, c.inline[:])
	if err != nil {
		return Response{}, c.breakLocked(req.Method, StageWrite, err)
	}
	var resp Response
	payload, err := c.frames.Next()
	if err == nil {
		err = unmarshalResponse(payload, &resp)
	}
	if err != nil {
		return Response{}, c.breakLocked(req.Method, StageRead, err)
	}
	if resp.Seq != req.Seq {
		// A mismatched sequence means the stream carries a late answer to
		// an earlier request — the framing is desynced for good.
		return Response{}, c.breakLocked(req.Method, StageRead,
			fmt.Errorf("sequence mismatch: sent %d, got %d", req.Seq, resp.Seq))
	}
	if resp.Error != "" {
		return resp, &RemoteError{Method: req.Method, Msg: resp.Error}
	}
	if req.Method == MethodPing {
		c.domain = resp.Domain
	}
	return resp, nil
}

// Ping checks liveness and returns the remote domain name.
func (c *Client) Ping() (string, error) {
	resp, err := c.Exchange(Request{Method: MethodPing})
	return resp.Domain, err
}

// PeerName implements Exchanger; it returns the domain learned from the
// last ping exchanged (Dial pings automatically).
func (c *Client) PeerName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.domain
}
