package proto

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"testing"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// decodeBothWays decodes payload as a Request and as a Response through
// unmarshalFrame and through json.Unmarshal alone, from a zero destination
// and from a filled one (members a frame omits keep their value), and
// fails unless the two agree on the value and on whether it is an error.
func decodeBothWays(t *testing.T, payload []byte) {
	t.Helper()
	for _, filled := range []bool{false, true} {
		var req, refReq Request
		var resp, refResp Response
		if filled {
			at, refAt := sim.Time(77), sim.Time(77)
			req = Request{Seq: 9, Method: "m", JobID: 3, At: &at, From: "f"}
			refReq = Request{Seq: 9, Method: "m", JobID: 3, At: &refAt, From: "f"}
			resp = Response{Seq: 9, Error: "e", Domain: "d", Known: true, Status: "s", OK: true}
			refResp = resp
		}
		err, refErr := unmarshalFrame(payload, &req), json.Unmarshal(payload, &refReq)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(req, refReq) {
			t.Fatalf("request %q (filled %v): codec %+v, %v; encoding/json %+v, %v", payload, filled, req, err, refReq, refErr)
		}
		err, refErr = unmarshalFrame(payload, &resp), json.Unmarshal(payload, &refResp)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(resp, refResp) {
			t.Fatalf("response %q (filled %v): codec %+v, %v; encoding/json %+v, %v", payload, filled, resp, err, refResp, refErr)
		}
	}
}

// encodeBothWays fails unless WriteFrame's payload for v is json.Marshal's,
// and returns it.
func encodeBothWays(t *testing.T, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatalf("WriteFrame(%+v): %v", v, err)
	}
	if got := buf.Bytes()[4:]; !bytes.Equal(got, want) {
		t.Fatalf("WriteFrame(%+v) payload\n got %q\nwant %q", v, got, want)
	}
	return want
}

// TestCodecRefusals: every payload here is outside the strict parser's
// language, so the parser must refuse it (for both frame types) and the
// decode must land on whatever encoding/json makes of it — a value for
// some, an error for others.
func TestCodecRefusals(t *testing.T) {
	for name, payload := range map[string]string{
		"duplicate key":       `{"seq":1,"seq":2}`,
		"duplicate bool":      `{"seq":1,"ok":true,"ok":false}`,
		"false spelled out":   `{"seq":1,"known":false,"ok":false}`,
		"unknown key":         `{"seq":1,"extra":5}`,
		"uppercase key":       `{"Seq":1,"METHOD":"ping","OK":true}`,
		"leading zero":        `{"seq":01}`,
		"negative zero lead":  `{"seq":1,"job_id":-01}`,
		"exponent":            `{"seq":1e3}`,
		"fraction":            `{"seq":1,"job_id":2.0}`,
		"negative seq":        `{"seq":-1}`,
		"null":                `{"seq":1,"at":null,"status":null}`,
		"null document":       `null`,
		"leading whitespace":  ` {"seq":1}`,
		"inner whitespace":    `{"seq": 1, "method": "ping"}`,
		"trailing whitespace": "{\"seq\":1}\n",
		"trailing bytes":      `{"seq":1}x`,
		"trailing comma":      `{"seq":1,}`,
		"truncated":           `{"seq":1`,
		"empty":               ``,
		"seq overflow":        `{"seq":18446744073709551616}`,
		"job_id overflow":     `{"seq":1,"job_id":9223372036854775808}`,
		"job_id underflow":    `{"seq":1,"at":-9223372036854775809}`,
		"escape":              `{"seq":1,"method":"ping","error":"a\"b"}`,
		"escaped key":         `{"s\u0065q":1}`,
		"non-ASCII":           `{"seq":1,"from":"é","domain":"é"}`,
		"control byte":        "{\"seq\":1,\"from\":\"a\x01b\"}",
		"invalid UTF-8":       "{\"seq\":1,\"from\":\"\xff\",\"error\":\"\xff\"}",
		"views":               `{"seq":1,"views":[{"local":1,"mate":2,"status":"holding"}]}`,
		"empty views":         `{"seq":1,"views":[]}`,
		"wrong type":          `{"seq":"1","known":1}`,
		"array":               `[1]`,
	} {
		t.Run(name, func(t *testing.T) {
			if parseRequest([]byte(payload), new(Request), nil) {
				t.Errorf("parseRequest accepted %q", payload)
			}
			if parseResponse([]byte(payload), new(Response)) {
				t.Errorf("parseResponse accepted %q", payload)
			}
			decodeBothWays(t, []byte(payload))
		})
	}
}

// TestCodecAccepts pins what the strict parser takes itself: the frames
// the encoder writes, members in struct order, the integer extremes, an
// omitempty member carrying its zero value. The same members in any other
// order are declined and decode through json.Unmarshal, to what it gives.
func TestCodecAccepts(t *testing.T) {
	for _, payload := range []string{
		`{"seq":0}`,
		`{"seq":0,"method":""}`,
		`{"seq":18446744073709551615,"method":"probe_mate","job_id":-9223372036854775808,"at":9223372036854775807,"from":"A"}`,
		`{"seq":7,"method":"no such method","job_id":0,"at":-0,"from":""}`,
		`{"seq":3,"error":"unknown job 5","domain":"intrepid","known":true,"status":"holding","ok":true}`,
		`{"seq":3,"status":"","ok":true}`,
	} {
		var req Request
		var resp Response
		if !parseRequest([]byte(payload), &req, nil) && !parseResponse([]byte(payload), &resp) {
			t.Errorf("neither parser accepted %q", payload)
		}
		decodeBothWays(t, []byte(payload))
	}
	for _, payload := range []string{
		`{}`,
		`{"method":"ping","seq":1}`,
		`{"seq":1,"job_id":4,"method":"probe_mate"}`,
		`{"seq":2,"method":"start_mate","at":5,"job_id":4}`,
		`{"from":"","at":-0,"job_id":0,"method":"no such method","seq":7}`,
		`{"seq":3,"ok":true,"known":true}`,
		`{"seq":3,"status":"holding","domain":"intrepid","error":"e"}`,
		`{"ok":true,"status":"","known":true,"seq":3}`,
	} {
		if parseRequest([]byte(payload), new(Request), nil) || parseResponse([]byte(payload), new(Response)) {
			t.Errorf("a parser took %q, whose members are out of order", payload)
		}
		decodeBothWays(t, []byte(payload))
	}
}

// TestWriteFrameMatchesJSONMarshal: the encoder's bytes are json.Marshal's
// for the frames it writes itself and for those it hands on.
func TestWriteFrameMatchesJSONMarshal(t *testing.T) {
	zero, neg := sim.Time(0), sim.Time(-5)
	for _, v := range []any{
		&Request{},
		&Request{Seq: 1, Method: MethodProbeMate, JobID: 4242},
		&Request{Seq: math.MaxUint64, Method: MethodStartMate, JobID: math.MinInt64, At: &zero},
		&Request{Seq: 2, Method: MethodTryStartMate, JobID: -1, At: &neg},
		&Request{Seq: 3, Method: "a\"b\\c\n<>& é\xff\x7f", From: "<A&B>"},
		&Request{Seq: 4, Method: MethodReconcile, From: "A", Views: []MateWire{{Local: 1, Mate: 2, Status: "holding", Start: 9}}},
		&Request{Seq: 5, Method: MethodReconcile, From: "A", Views: []MateWire{}},
		&Response{},
		&Response{Seq: 1, Known: true, Status: cosched.StatusQueuing.String(), OK: true},
		&Response{Seq: 2, Error: `proto: unknown method: "bogus"`},
		&Response{Seq: 3, Domain: "intrepid"},
		&Response{Seq: 4, Domain: "é", Status: "\x00"},
		&Response{Seq: 5, Views: []MateWire{{Local: 1, Mate: 2, Status: "running"}}},
		(*Request)(nil),
		(*Response)(nil),
		Request{Seq: 6, Method: MethodPing},
		Response{Seq: 6, Domain: "eureka"},
	} {
		decodeBothWays(t, encodeBothWays(t, v))
	}
}

// TestDecodedNamesAreInterned: a known method or status decodes to the
// package's own string, not to a copy of the payload's bytes.
func TestDecodedNamesAreInterned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	reqPayload := encodeBothWays(t, &Request{Seq: 1, Method: MethodProbeMate, JobID: 7})
	respPayload := encodeBothWays(t, &Response{Seq: 1, Known: true, Status: cosched.StatusHolding.String()})
	var req Request
	var resp Response
	allocs := testing.AllocsPerRun(100, func() {
		if !parseRequest(reqPayload, &req, nil) || !parseResponse(respPayload, &resp) {
			t.Fatal("canonical frame refused")
		}
	})
	if allocs != 0 || req.Method != MethodProbeMate || resp.Status != cosched.StatusHolding.String() {
		t.Fatalf("decode: %v allocs/op, method %q, status %q; want 0 and the names", allocs, req.Method, resp.Status)
	}
}

// TestProbeMateRoundTripAllocatesNothing pins the steady-state cost of the
// call Algorithm 1 makes per mate: a probe_mate round trip over net.Pipe —
// request encoded and written, read and decoded by the server, dispatched,
// response encoded, written, read and decoded — allocates nothing on either
// side. (AllocsPerRun counts every goroutine's allocations, so the serving
// goroutine's are included.)
func TestProbeMateRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	backend := newFakeBackend()
	backend.statuses[7] = cosched.StatusQueuing
	server := NewServer(backend, nil, nil)
	clientEnd, serverEnd := net.Pipe()
	go server.ServeConn(serverEnd)
	c := NewClient(clientEnd, 0)
	defer func() {
		c.Close()
		server.Close()
	}()
	want := cosched.MateProbe{Known: true, Status: cosched.StatusQueuing, CanStart: true}
	allocs := testing.AllocsPerRun(500, func() {
		if got, err := c.ProbeMate(7); err != nil || got != want {
			t.Fatalf("ProbeMate(7) = %+v, %v; want %+v", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("a probe_mate round trip allocates %v times, want 0", allocs)
	}
}

// TestInProcessRoundTripAllocatesNothing is the same pin for the transport a
// simulation uses (Server.InProcessConn): neither the client's frames nor
// the conn's two buffers allocate once warm.
func TestInProcessRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	backend := newFakeBackend()
	backend.statuses[7] = cosched.StatusQueuing
	c := NewClient(NewServer(backend, nil, nil).InProcessConn(), 0)
	want := cosched.MateProbe{Known: true, Status: cosched.StatusQueuing, CanStart: true}
	allocs := testing.AllocsPerRun(500, func() {
		if got, err := c.ProbeMate(7); err != nil || got != want {
			t.Fatalf("ProbeMate(7) = %+v, %v; want %+v", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("an in-process probe_mate round trip allocates %v times, want 0", allocs)
	}
}

// coStartBackend is a fakeBackend that speaks the CoStarter extension and
// records the instant the last start request carried.
type coStartBackend struct {
	*fakeBackend
	at sim.Time
}

func (b *coStartBackend) TryStartMateAt(_ job.ID, at sim.Time) (bool, error) {
	b.at = at
	return true, nil
}

func (b *coStartBackend) StartMateAt(_ job.ID, at sim.Time) error {
	b.at = at
	return nil
}

// TestStartMateAtRoundTripAllocatesNothing: a start_mate carrying the
// co-start instant, over ServeConn and over the in-process conn, decodes its
// "at" into the connection's own storage, so the round trip allocates
// nothing once warm — and the backend still sees each frame's instant.
func TestStartMateAtRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, transport := range []string{"pipe", "in-process"} {
		t.Run(transport, func(t *testing.T) {
			backend := &coStartBackend{fakeBackend: newFakeBackend()}
			server := NewServer(backend, nil, nil)
			conn := server.InProcessConn()
			if transport == "pipe" {
				var serverEnd net.Conn
				conn, serverEnd = net.Pipe()
				go server.ServeConn(serverEnd)
			}
			c := NewClient(conn, 0)
			defer func() {
				c.Close()
				server.Close()
			}()
			at := sim.Time(86400)
			allocs := testing.AllocsPerRun(500, func() {
				at++
				if _, err := c.Exchange(Request{Method: MethodStartMate, JobID: 7, At: &at}); err != nil || backend.at != at {
					t.Fatalf("start_mate at %d: %v; the backend saw %d", at, err, backend.at)
				}
			})
			if allocs != 0 {
				t.Fatalf("a start_mate round trip carrying at allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestCallerStartMateAtAllocatesOnce pins what a start carrying its instant
// costs where resmgr makes it, through Caller: the call's &at is stored in
// Request.At and escapes through the Exchanger interface, one allocation
// per TryStartMateAt or StartMateAt. TestStartMateAtRoundTripAllocatesNothing
// does not see it, because it calls Client.Exchange with an instant that is
// already on the heap. ROADMAP item 0 carries the fix — Request.At by value
// — which turns this pin to 0.
func TestCallerStartMateAtAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	backend := &coStartBackend{fakeBackend: newFakeBackend()}
	c := NewClient(NewServer(backend, nil, nil).InProcessConn(), 0).Caller
	at := sim.Time(86400)
	for name, call := range map[string]func() error{
		"try_start_mate": func() error {
			_, err := c.TryStartMateAt(7, at)
			return err
		},
		"start_mate": func() error { return c.StartMateAt(7, at) },
	} {
		allocs := testing.AllocsPerRun(500, func() {
			at++
			if err := call(); err != nil || backend.at != at {
				t.Fatalf("%s at %d: %v; the backend saw %d", name, at, err, backend.at)
			}
		})
		if allocs != 1 {
			t.Errorf("a %s through Caller allocates %v times; the pin is 1 (item 0: Request.At by value makes it 0)", name, allocs)
		}
	}
}
