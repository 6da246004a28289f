package proto

import (
	"math"
	"strconv"

	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// The reflection-free codec for Request and Response: a fast path inside the
// JSON framing, not a second format (see the package comment for what it
// takes and what it leaves to encoding/json).

// plain reports whether c stands for itself inside a JSON string both ways:
// json.Marshal writes it verbatim (no escape, no HTML escape) and
// json.Unmarshal reads it verbatim.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			return false
		}
	}
	return true
}

// appendString appends key (`,"name":"` — the opening quote included), s and
// the closing quote, or nothing for the empty string (omitempty).
func appendString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	b = append(b, key...)
	b = append(b, s...)
	return append(b, '"')
}

// appendRequest appends json.Marshal(r) to b. It reports false, having
// appended nothing a caller may keep, for a request it cannot write
// verbatim: one with views or with a string that needs an escape.
func appendRequest(b []byte, r *Request) ([]byte, bool) {
	if len(r.Views) != 0 || !plainString(r.Method) || !plainString(r.From) {
		return b, false
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"method":"`...)
	b = append(b, r.Method...)
	b = append(b, '"')
	if r.JobID != 0 {
		b = append(b, `,"job_id":`...)
		b = strconv.AppendInt(b, int64(r.JobID), 10)
	}
	if r.At != nil {
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, *r.At, 10)
	}
	b = appendString(b, `,"from":"`, r.From)
	return append(b, '}'), true
}

// appendResponse is appendRequest for a Response.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	if len(r.Views) != 0 || !plainString(r.Error) || !plainString(r.Domain) || !plainString(r.Status) {
		return b, false
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = appendString(b, `,"error":"`, r.Error)
	b = appendString(b, `,"domain":"`, r.Domain)
	if r.Known {
		b = append(b, `,"known":true`...)
	}
	b = appendString(b, `,"status":"`, r.Status)
	if r.OK {
		b = append(b, `,"ok":true`...)
	}
	return append(b, '}'), true
}

// scanner walks one canonical JSON object: no whitespace, escape-free
// ASCII strings, plain decimal integers. The first byte outside that shape
// sets bad, which every later step preserves, so a parse checks it once at
// the end.
type scanner struct {
	b    []byte
	i    int
	seen uint // members met so far, one bit each (see once)
	bad  bool
}

// lit consumes lit if the input continues with it.
func (s *scanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// next consumes the punctuation before the next member — the opening brace
// or a comma — and reports whether a member follows; it returns false after
// the closing brace and on any other byte (then bad).
func (s *scanner) next() bool {
	switch {
	case s.bad:
		return false
	case s.i == 0:
		if s.lit("{") {
			return !s.lit("}")
		}
	case s.lit(","):
		return true
	case s.lit("}"):
		return false
	}
	s.bad = true
	return false
}

// done reports whether the object parsed and nothing follows it.
func (s *scanner) done() bool { return !s.bad && s.i == len(s.b) }

// str consumes a string literal of plain bytes and returns them, aliasing
// the input.
func (s *scanner) str() []byte {
	if s.lit(`"`) {
		for start := s.i; s.i < len(s.b); s.i++ {
			c := s.b[s.i]
			if c == '"' {
				s.i++
				return s.b[start : s.i-1]
			}
			if !plain(c) {
				break
			}
		}
	}
	s.bad = true
	return nil
}

// key consumes `"name":`.
func (s *scanner) key() []byte {
	k := s.str()
	if !s.lit(":") {
		s.bad = true
	}
	return k
}

// once marks the member with this bit as met; meeting it twice is outside
// the canonical shape (encoding/json would keep the last).
func (s *scanner) once(bit uint) {
	if s.seen&bit != 0 {
		s.bad = true
	}
	s.seen |= bit
}

// uint consumes digits: no sign, no leading zero, no fraction or exponent
// (the byte after the digits is left for next to reject), within uint64.
func (s *scanner) uint() uint64 {
	start, v := s.i, uint64(0)
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			s.bad = true
			return 0
		}
		v = v*10 + d
	}
	if n := s.i - start; n == 0 || n > 1 && s.b[start] == '0' {
		s.bad = true
	}
	return v
}

// int consumes an optionally negative integer within int64.
func (s *scanner) int() int64 {
	neg := s.lit("-")
	v := s.uint()
	if neg && v <= -math.MinInt64 {
		return -int64(v)
	}
	if neg || v > math.MaxInt64 {
		s.bad = true
	}
	return int64(v)
}

func (s *scanner) bool() bool {
	if s.lit("true") {
		return true
	}
	if !s.lit("false") {
		s.bad = true
	}
	return false
}

// methodNames and statusNames are the strings a decoded frame's method and
// status are expected to be; intern returns the table's copy so a
// steady-state frame decodes without allocating.
var (
	methodNames = [...]string{
		MethodProbeMate, MethodTryStartMate, MethodStartMate, MethodPing,
		MethodGetMateJob, MethodGetMateStatus, MethodCanStartMate, MethodReconcile,
	}
	statusNames = func() (names [cosched.StatusCompleted + 1]string) {
		for st := range names {
			names[st] = cosched.MateStatus(st).String()
		}
		return names
	}()
)

func intern(b []byte, names []string) string {
	for _, name := range names {
		if name == string(b) {
			return name
		}
	}
	return string(b)
}

// hasAt is the scanner.seen bit of a request's "at" member.
const hasAt = 8

// parseRequest decodes payload into *dst as json.Unmarshal would, if
// payload is a canonical object of known lowercase keys, each at most once,
// in any order; members the payload omits keep their value in *dst. It
// reports false, with *dst untouched, for anything else — including frames
// encoding/json accepts (whitespace, escapes, views, null, other key
// spellings), which are the caller's to pass on.
//
//simlint:hotpath
func parseRequest(payload []byte, dst *Request) bool {
	s := scanner{b: payload}
	req := *dst
	var at sim.Time
	for s.next() {
		switch string(s.key()) {
		case "seq":
			s.once(1)
			req.Seq = s.uint()
		case "method":
			s.once(2)
			req.Method = intern(s.str(), methodNames[:])
		case "job_id":
			s.once(4)
			req.JobID = job.ID(s.int())
		case "at":
			s.once(hasAt)
			at = s.int()
		case "from":
			s.once(16)
			req.From = string(s.str())
		default:
			return false
		}
	}
	if !s.done() {
		return false
	}
	if s.seen&hasAt != 0 {
		if req.At == nil {
			req.At = new(sim.Time)
		}
		*req.At = at
	}
	*dst = req
	return true
}

// parseResponse is parseRequest for a Response.
//
//simlint:hotpath
func parseResponse(payload []byte, dst *Response) bool {
	s := scanner{b: payload}
	resp := *dst
	for s.next() {
		switch string(s.key()) {
		case "seq":
			s.once(1)
			resp.Seq = s.uint()
		case "error":
			s.once(2)
			resp.Error = string(s.str())
		case "domain":
			s.once(4)
			resp.Domain = string(s.str())
		case "known":
			s.once(8)
			resp.Known = s.bool()
		case "status":
			s.once(16)
			resp.Status = intern(s.str(), statusNames[:])
		case "ok":
			s.once(32)
			resp.OK = s.bool()
		default:
			return false
		}
	}
	if !s.done() {
		return false
	}
	*dst = resp
	return true
}
