package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cosched/internal/cluster"
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/journal"
	"cosched/internal/proto"
	"cosched/internal/resmgr"
	"cosched/internal/sim"
)

// readFrame decodes payload the way serveConn and call do: framed, through
// proto.ReadFrame and so through the admin codec's seam.
func readFrame(payload []byte, v any) error {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return proto.ReadFrame(bytes.NewReader(append(frame, payload...)), v)
}

// filledRequest and filledResponse are destinations with every member set:
// members a frame omits must keep their value, as with json.Unmarshal.
func filledRequest() AdminRequest {
	return AdminRequest{Seq: 9, Op: "o", JobID: 3, Job: &WireJob{
		ID: 4, Name: "n", User: 10, Nodes: 5, Runtime: 6, Walltime: 7,
		Mates: []job.MateRef{{Domain: "X", Job: 8}, {Domain: "Y", Job: 9}},
	}}
}

func filledResponse() AdminResponse {
	return AdminResponse{Seq: 9, Error: "e", State: "s", StartTime: 1, Started: true, Domain: "d", Nodes: 2, Free: 3, VirtualNow: 4}
}

// decodeBothWays decodes payload as a request and as a response through the
// framing and through json.Unmarshal alone, into zero and into filled
// destinations, and fails unless the two agree on the value and on whether
// it is an error.
func decodeBothWays(t *testing.T, payload []byte) {
	t.Helper()
	for _, filled := range []bool{false, true} {
		var req, refReq AdminRequest
		var resp, refResp AdminResponse
		if filled {
			req, refReq = filledRequest(), filledRequest()
			resp, refResp = filledResponse(), filledResponse()
		}
		err, refErr := readFrame(payload, &req), json.Unmarshal(payload, &refReq)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(req, refReq) {
			t.Fatalf("request %q (filled %v): codec %+v job %+v, %v; encoding/json %+v job %+v, %v",
				payload, filled, req, req.Job, err, refReq, refReq.Job, refErr)
		}
		err, refErr = readFrame(payload, &resp), json.Unmarshal(payload, &refResp)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(resp, refResp) {
			t.Fatalf("response %q (filled %v): codec %+v, %v; encoding/json %+v, %v", payload, filled, resp, err, refResp, refErr)
		}
	}
	decodeInScratch(t, payload)
}

// decodeInScratch decodes payloads in turn into one adminScratch, as
// serveConn decodes its connection's frames, and fails unless each decodes
// as json.Unmarshal alone decodes it into a zero AdminRequest: same value,
// same error-ness, nothing left over from the frame before.
func decodeInScratch(t *testing.T, payloads ...[]byte) {
	t.Helper()
	var scratch adminScratch
	for i, payload := range payloads {
		var ref AdminRequest
		err, refErr := scratch.decode(payload), json.Unmarshal(payload, &ref)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(scratch.req, ref) {
			t.Fatalf("frame %d %q into connection scratch: %+v job %+v, %v; encoding/json %+v job %+v, %v",
				i, payload, scratch.req, scratch.req.Job, err, ref, ref.Job, refErr)
		}
	}
}

// encodeBothWays fails unless proto.WriteFrame's payload for v is
// json.Marshal's, and returns it.
func encodeBothWays(t *testing.T, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	var buf bytes.Buffer
	if err := proto.WriteFrame(&buf, v); err != nil {
		t.Fatalf("WriteFrame(%+v): %v", v, err)
	}
	if got := buf.Bytes()[4:]; !bytes.Equal(got, want) {
		t.Fatalf("WriteFrame(%+v) payload\n got %q\nwant %q", v, got, want)
	}
	return want
}

// TestAdminCodecRefusals: every payload here is outside the strict parsers'
// language, so both must refuse it and the decode must land on whatever
// encoding/json makes of it.
func TestAdminCodecRefusals(t *testing.T) {
	for name, payload := range map[string]string{
		"quote in name":      `{"seq":1,"op":"submit","job":{"id":1,"name":"a\"b","nodes":1,"runtime_seconds":1,"walltime_seconds":1}}`,
		"angle in name":      `{"seq":1,"op":"submit","job":{"id":1,"name":"a\u003cb","nodes":1,"runtime_seconds":1,"walltime_seconds":1}}`,
		"raw angle in name":  `{"seq":1,"op":"submit","job":{"id":1,"name":"a<b","nodes":1,"runtime_seconds":1,"walltime_seconds":1}}`,
		"non-ASCII name":     `{"seq":1,"op":"submit","job":{"id":1,"name":"é","nodes":1,"runtime_seconds":1,"walltime_seconds":1}}`,
		"non-ASCII error":    `{"seq":1,"error":"é","domain":"é"}`,
		"whitespace":         `{"seq":1, "op":"info"}`,
		"newline after":      "{\"seq\":1}\n",
		"inner whitespace":   `{"seq":1,"job":{ "id":1}}`,
		"duplicate key":      `{"seq":1,"seq":2}`,
		"false spelled out":  `{"seq":1,"started":false}`,
		"duplicate job":      `{"seq":1,"job":{"id":1},"job":{"nodes":2}}`,
		"duplicate in job":   `{"seq":1,"job":{"id":1,"id":2}}`,
		"unknown key":        `{"seq":1,"extra":5}`,
		"unknown key in job": `{"seq":1,"job":{"id":1,"queue":5}}`,
		"uppercase key":      `{"Seq":1,"OP":"info","STATE":"queued"}`,
		"null job":           `{"seq":1,"op":"submit","job":null}`,
		"null members":       `{"seq":1,"op":null,"state":null,"job_id":null}`,
		"null mates":         `{"seq":1,"job":{"id":1,"mates":null}}`,
		"null document":      `null`,
		"empty mates":        `{"seq":1,"op":"expect","job":{"id":1,"nodes":1,"runtime_seconds":1,"walltime_seconds":1,"mates":[]}}`,
		"half a mate":        `{"seq":1,"job":{"id":1,"mates":[{"Job":2}]}}`,
		"lowercase mate key": `{"seq":1,"job":{"id":1,"mates":[{"domain":"B","job":2}]}}`,
		"negative seq":       `{"seq":-1}`,
		"leading zero":       `{"seq":01}`,
		"fraction":           `{"seq":1,"job":{"id":1,"nodes":2.0}}`,
		"exponent":           `{"seq":1,"nodes":1e3,"job_id":1e3}`,
		"seq overflow":       `{"seq":18446744073709551616}`,
		"id overflow":        `{"seq":1,"job":{"id":9223372036854775808}}`,
		"nodes underflow":    `{"seq":1,"nodes":-9223372036854775809,"job":{"nodes":-9223372036854775809}}`,
		"wrong type":         `{"seq":"1","started":1,"job":[]}`,
		"trailing bytes":     `{"seq":1}x`,
		"truncated":          `{"seq":1,"job":{"id":1}`,
		"empty":              ``,
	} {
		t.Run(name, func(t *testing.T) {
			if new(AdminRequest).ParseFrame([]byte(payload)) {
				t.Errorf("request parser accepted %q", payload)
			}
			if new(AdminResponse).ParseFrame([]byte(payload)) {
				t.Errorf("response parser accepted %q", payload)
			}
			decodeBothWays(t, []byte(payload))
		})
	}
}

// TestAdminCodecAccepts pins what the strict parsers take themselves: the
// frames the encoders write, members in struct order, the integer extremes
// — and that a known op or state decodes to the package's own string. The
// same members in any other order are declined and decode through
// json.Unmarshal, to what it gives.
func TestAdminCodecAccepts(t *testing.T) {
	for _, payload := range []string{
		`{"seq":0}`,
		`{"seq":1,"op":"info"}`,
		`{"seq":2,"op":"status","job_id":-9223372036854775808}`,
		`{"seq":18446744073709551615,"op":"expect","job":{"id":7,"name":"pair-a","nodes":16,"runtime_seconds":600,"walltime_seconds":900,"mates":[{"Domain":"B","Job":7},{"Domain":"C","Job":-7}]}}`,
		`{"seq":3,"op":"no such op","job":{"id":0,"nodes":0,"runtime_seconds":0,"walltime_seconds":-0,"mates":[{"Domain":"","Job":1}]},"job_id":5}`,
		`{"seq":5,"state":"unsubmitted"}`,
		`{"seq":6,"error":"unknown job 5"}`,
		`{"seq":7,"state":"running","start_time":-1,"started":true,"domain":"intrepid","nodes":100,"free":0,"virtual_now":9223372036854775807}`,
	} {
		if !new(AdminRequest).ParseFrame([]byte(payload)) && !new(AdminResponse).ParseFrame([]byte(payload)) {
			t.Errorf("neither parser accepted %q", payload)
		}
		decodeBothWays(t, []byte(payload))
	}
	for _, payload := range []string{
		`{}`,
		`{"op":"info","seq":1}`,
		`{"seq":2,"job_id":4,"op":"status"}`,
		`{"job":{"mates":[{"Job":1,"Domain":""}],"walltime_seconds":-0,"id":0},"op":"no such op","seq":3}`,
		`{"seq":4,"op":"submit","job":{"nodes":1,"id":1,"runtime_seconds":1,"walltime_seconds":1}}`,
		`{"seq":4,"op":"submit","job":{}}`,
		`{"seq":4,"op":"expect","job":{"id":1,"nodes":1,"runtime_seconds":1,"walltime_seconds":1,"mates":[{"Job":2,"Domain":"B"}]}}`,
		`{"virtual_now":9223372036854775807,"free":0,"nodes":100,"domain":"intrepid","started":true,"start_time":-1,"state":"running","seq":7}`,
		`{"seq":8,"started":true,"state":"running"}`,
	} {
		if new(AdminRequest).ParseFrame([]byte(payload)) || new(AdminResponse).ParseFrame([]byte(payload)) {
			t.Errorf("a parser took %q, whose members are out of order", payload)
		}
		decodeBothWays(t, []byte(payload))
	}
	var req AdminRequest
	var resp AdminResponse
	if !req.ParseFrame([]byte(`{"seq":1,"op":"submit"}`)) || !resp.ParseFrame([]byte(`{"seq":1,"state":"holding"}`)) {
		t.Fatal("canonical frame refused")
	}
	if unsafe.StringData(req.Op) != unsafe.StringData(OpSubmit) || unsafe.StringData(resp.State) != unsafe.StringData(job.Holding.String()) {
		t.Fatal("a known op or state decoded to a copy of the payload's bytes")
	}
}

// TestAdminFramesMatchJSONMarshal: the encoders' bytes are json.Marshal's
// for the frames they write themselves and for those they hand on.
func TestAdminFramesMatchJSONMarshal(t *testing.T) {
	mates := []job.MateRef{{Domain: "B", Job: 7}}
	for _, v := range []any{
		&AdminRequest{},
		&AdminRequest{Seq: 1, Op: OpInfo},
		&AdminRequest{Seq: 2, Op: OpStatus, JobID: 42},
		&AdminRequest{Seq: 3, Op: OpExpect, Job: &WireJob{ID: 7, User: 12, Nodes: 16, Runtime: 600, Walltime: 900, Mates: mates}},
		&AdminRequest{Seq: 4, Op: OpSubmit, Job: &WireJob{ID: math.MinInt64, Name: "pair-a", Nodes: -1, Mates: []job.MateRef{}}},
		&AdminRequest{Seq: 5, Op: OpSubmit, Job: &WireJob{ID: 1, Name: `a"b<c>&é`, Nodes: 1}},
		&AdminRequest{Seq: 6, Op: OpSubmit, Job: &WireJob{ID: 1, Nodes: 1, Mates: []job.MateRef{{Domain: "B"}, {Domain: "\xff", Job: 2}}}},
		&AdminRequest{Seq: 7, Op: "a\nb", Job: &WireJob{}},
		&AdminResponse{},
		&AdminResponse{Seq: 1, State: job.Unsubmitted.String()},
		&AdminResponse{Seq: 2, State: job.Running.String(), StartTime: 77, Started: true},
		&AdminResponse{Seq: 3, Domain: "intrepid", Nodes: 40960, Free: 1, VirtualNow: 12345},
		&AdminResponse{Seq: 4, Error: `unknown op "bogus"`},
		&AdminResponse{Seq: 5, Error: "job 7 asks for 200 nodes; narrow has 100"},
		&AdminResponse{Seq: 6, Domain: "é", State: "\x00"},
		(*AdminRequest)(nil),
		(*AdminResponse)(nil),
		AdminRequest{Seq: 8, Op: OpCancel, JobID: 1},
		AdminResponse{Seq: 8, State: job.Cancelled.String()},
	} {
		decodeBothWays(t, encodeBothWays(t, v))
	}
}

// FuzzAdminCodec is the differential target for the admin codec, the twin
// of proto's FuzzFrameCodec: for arbitrary payload bytes a decode through
// the framing must give what json.Unmarshal alone gives, for arbitrary
// member values WriteFrame's payload must be json.Marshal's, and what was
// written must decode both ways alike — also as the frames of one
// connection, decoded in turn into one reused scratch.
func FuzzAdminCodec(f *testing.F) {
	// payload, then the members of one request and one response: seq, two
	// integers, a mask of which optional members are set, the number of
	// mates, three strings.
	f.Add([]byte(`{"seq":1,"op":"expect","job":{"id":7,"nodes":16,"runtime_seconds":600,"walltime_seconds":900,"mates":[{"Domain":"B","Job":7}]}}`), uint64(1), int64(7), int64(600), uint32(0xffff), uint8(1), OpExpect, "B", "")
	f.Add([]byte(`{"seq":2,"state":"unsubmitted"}`), uint64(math.MaxUint64), int64(math.MinInt64), int64(math.MaxInt64), uint32(0), uint8(0), OpInfo, "", "unsubmitted")
	f.Add([]byte(`{"seq":3,"op":"submit","job":{"id":1,"name":"a\"b","nodes":1,"runtime_seconds":1,"walltime_seconds":1,"mates":[]}}`), uint64(3), int64(-1), int64(0), uint32(5), uint8(3), "a\"b\\c", "<x>&", "é")
	f.Add([]byte(`{"seq":4,"seq":5,"Seq":6,"extra":null,"job":null}`), uint64(4), int64(1), int64(1), uint32(0xaaaa), uint8(2), "\xff", " ", "\x00\x1f\x7f")
	f.Add([]byte(` {"seq": 01, "job_id": -0, "nodes": 1e3}x`), uint64(5), int64(-0), int64(1), uint32(0x5555), uint8(0), "", "", "")
	f.Add([]byte(`{"seq":18446744073709551616,"job":{"id":9223372036854775808,"nodes":-9223372036854775809}}`), uint64(6), int64(9), int64(9), uint32(1), uint8(1), "submit", "A", "running")
	f.Fuzz(func(t *testing.T, payload []byte, seq uint64, v1, v2 int64, mask uint32, nMates uint8, s1, s2, s3 string) {
		decodeBothWays(t, payload)
		// opt gives member i its value, or zero if the mask leaves it out.
		opt := func(i uint, v int64) int64 {
			if mask>>i&1 == 0 {
				return 0
			}
			return v
		}
		req := AdminRequest{Seq: seq, Op: s1, JobID: job.ID(opt(0, v1))}
		if mask>>1&1 != 0 {
			w := &WireJob{ID: job.ID(v1), User: int(opt(10, v1+v2)), Nodes: int(v2), Runtime: opt(2, v2), Walltime: opt(3, v1^v2)}
			if mask>>4&1 != 0 {
				w.Name = s3
			}
			for i := 0; i < int(nMates%4); i++ {
				w.Mates = append(w.Mates, job.MateRef{Domain: s2, Job: job.ID(v1 + int64(i))})
			}
			req.Job = w
		}
		reqPayload := encodeBothWays(t, &req)
		decodeBothWays(t, reqPayload)
		// The same connection then carries a frame with no job, the request
		// again, one with a mate more under another domain, and the fuzzed
		// bytes between them.
		more := AdminRequest{Seq: seq + 1, Op: OpSubmit, Job: &WireJob{ID: job.ID(v2), Mates: []job.MateRef{{Domain: s3, Job: 1}}}}
		if req.Job != nil {
			more.Job.Mates = append(slices.Clone(req.Job.Mates), more.Job.Mates...)
		}
		decodeInScratch(t, reqPayload, encodeBothWays(t, &AdminRequest{Seq: seq, Op: OpInfo}), payload,
			reqPayload, encodeBothWays(t, &more), payload, reqPayload)
		resp := AdminResponse{
			Seq: seq, StartTime: opt(5, v1), Started: mask>>6&1 != 0,
			Nodes: int(opt(7, v2)), Free: int(opt(8, v1)), VirtualNow: opt(9, v2),
		}
		if mask>>10&1 != 0 {
			resp.Error, resp.State, resp.Domain = s1, s3, s2
		}
		decodeBothWays(t, encodeBothWays(t, &resp))
	})
}

// TestAdminResponseCodecWithoutAllocating: the answer to a submit, the
// frame a pair costs four of, is written and read back without a heap
// allocation.
func TestAdminResponseCodecWithoutAllocating(t *testing.T) {
	resp := AdminResponse{Seq: 12345, State: job.Unsubmitted.String()}
	status := AdminResponse{Seq: 12346, State: job.Running.String(), StartTime: 86400, Started: true}
	buf := make([]byte, 0, 256)
	var back AdminResponse
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range []*AdminResponse{&resp, &status} {
			payload, ok := r.AppendFrame(buf[:0])
			back = AdminResponse{}
			if !ok || !back.ParseFrame(payload) || back != *r {
				t.Fatalf("round trip of %+v: %q, %+v", *r, payload, back)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding and parsing an AdminResponse allocates %v times, want 0", allocs)
	}
}

// TestAdminRequestCodecWithoutAllocating: a submit, the request a pair
// costs two of (and its expect twin two more), decodes into the
// connection's scratch — mates and their domain name included — without a
// heap allocation once the connection has seen the domain.
func TestAdminRequestCodecWithoutAllocating(t *testing.T) {
	req := AdminRequest{Seq: 12345, Op: OpSubmit, Job: &WireJob{
		ID: 7, Nodes: 16, Runtime: 600, Walltime: 900, Mates: []job.MateRef{{Domain: "beta", Job: 7}},
	}}
	payload, ok := req.AppendFrame(nil)
	if !ok {
		t.Fatalf("%+v not encoded", req)
	}
	var scratch adminScratch
	decode := func() {
		if err := scratch.decode(payload); err != nil || scratch.req.Seq != req.Seq || scratch.req.Op != req.Op ||
			scratch.req.Job == nil || scratch.req.Job.ID != req.Job.ID || !slices.Equal(scratch.req.Job.Mates, req.Job.Mates) {
			t.Fatalf("decode of %q: %+v job %+v, %v", payload, scratch.req, scratch.req.Job, err)
		}
	}
	decode() // the connection's first frame names the domain and sizes the mates array
	if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Fatalf("decoding a submit with mates into connection scratch allocates %v times, want 0", allocs)
	}
}

// TestDriverWakeUpWithoutAllocating: Run is woken by the admin and peer
// calls that leave an event due before its planned instant, and by its
// timer; a wake-up that finds nothing due re-arms the loop's one timer and
// allocates nothing.
func TestDriverWakeUpWithoutAllocating(t *testing.T) {
	d := NewDriver(sim.NewEngine(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()
	// AllocsPerRun runs at GOMAXPROCS(1) and counts every goroutine's
	// allocations: yielding until the nudge is taken lets Run go round once,
	// back to its select, inside the measured region.
	wake := func() {
		d.nudge()
		for len(d.wake) != 0 {
			runtime.Gosched()
		}
	}
	wake() // Run's first pass, whenever the scheduler gets to it
	if allocs := testing.AllocsPerRun(200, wake); allocs != 0 {
		t.Fatalf("a Driver.Run wake-up with nothing due allocates %v times, want 0", allocs)
	}
}

// TestAdminRefusesJobWiderThanPool: a job asking for more nodes than the
// domain has can never start, so expect and submit refuse it — naming the
// job, its width and the pool's — before the manager or the journal hears
// of it; its mates elsewhere are then never told to wait for it.
func TestAdminRefusesJobWiderThanPool(t *testing.T) {
	store, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := sim.NewEngine()
	mgr := resmgr.New(eng, resmgr.Options{
		Name: "narrow", Pool: cluster.New("narrow", 100), Backfilling: true,
		Cosched:  cosched.DefaultConfig(cosched.Hold),
		Observer: journal.NewRecorder(store, nil, func(err error) { t.Errorf("journal: %v", err) }),
	})
	d := NewDriver(eng, 500)
	as := NewAdminServer(mgr, d, nil)
	addr, err := as.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx)
	c, err := DialAdmin(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wide := WireJob{ID: 7, Nodes: 200, Runtime: 60, Walltime: 60, Mates: []job.MateRef{{Domain: "other", Job: 7}}}
	for op, call := range map[string]func(WireJob) error{OpExpect: c.Expect, OpSubmit: c.Submit} {
		err := call(wide)
		if err == nil {
			t.Fatalf("%s accepted a 200-node job on a 100-node pool", op)
		}
		for _, want := range []string{"job 7", "200", "100"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not name %q", op, err, want)
			}
		}
	}
	var known int
	d.Do(func() { mgr.EachJob(func(*job.Job) { known++ }) })
	if known != 0 || store.Stats().Appends != 0 {
		t.Fatalf("a refused job left %d job(s) in the manager and %d journal entries", known, store.Stats().Appends)
	}
	// The whole pool is not too wide.
	if err := c.Expect(WireJob{ID: 8, Nodes: 100, Runtime: 60, Walltime: 60}); err != nil {
		t.Fatalf("a job as wide as the pool was refused: %v", err)
	}
}
