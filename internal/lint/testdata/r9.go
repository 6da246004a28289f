// R9 fixtures: every network read in a protocol package must be
// preceded, in the same function, by arming a read deadline on the conn
// — directly or through a helper whose summary sets one. An undeadlined
// read on a silent peer parks its goroutine forever.
package fixture

import (
	"net"
	"time"

	"cosched/internal/proto"
)

func readNoDeadline(conn net.Conn) error {
	var v int
	return proto.ReadFrame(conn, &v) // want "R9"
}

func rawReadNoDeadline(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf) // want "R9"
}

// readWithDeadline arms the deadline on the same conn first — the
// sanctioned direct shape. (The deadline value is a parameter: the
// fixture package is sim-pure, so it may not call time.Now itself.)
func readWithDeadline(conn net.Conn, at time.Time) error {
	if err := conn.SetReadDeadline(at); err != nil {
		return err
	}
	var v int
	return proto.ReadFrame(conn, &v)
}

// readViaHelper arms the deadline through a closure. The closure's
// summary carries SetsDeadline, so the later read is satisfied.
func readViaHelper(conn net.Conn, at time.Time) error {
	arm := func() error { return conn.SetReadDeadline(at) }
	if err := arm(); err != nil {
		return err
	}
	var v int
	return proto.ReadFrame(conn, &v)
}

// A FrameReader is the buffered reader of one connection: its reads block
// on that connection exactly like the bare calls above.
func bufferedReadNoDeadline(conn net.Conn) error {
	var v int
	return proto.NewFrameReader(conn).ReadFrame(&v) // want "R9"
}

func bufferedReadWithDeadline(conn net.Conn, frames *proto.FrameReader, at time.Time) error {
	if err := conn.SetReadDeadline(at); err != nil {
		return err
	}
	var v int
	return frames.ReadFrame(&v)
}
