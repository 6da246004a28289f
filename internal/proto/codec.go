package proto

import (
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
	"cosched/internal/wirejson"
)

// The reflection-free codec for Request and Response: a fast path inside the
// JSON framing, not a second format (see the package comment for what it
// takes and what it leaves to encoding/json).

// appendRequest appends json.Marshal(r) to b. It reports false, having
// appended nothing a caller may keep, for a request it cannot write
// verbatim: one with views or with a string that needs an escape.
func appendRequest(b []byte, r *Request) ([]byte, bool) {
	if len(r.Views) != 0 || !wirejson.PlainString(r.Method) || !wirejson.PlainString(r.From) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendStr(b, `,"method":"`, r.Method)
	b = wirejson.AppendOmitInt(b, `,"job_id":`, int64(r.JobID))
	if r.At != nil {
		b = wirejson.AppendInt(b, `,"at":`, *r.At)
	}
	b = wirejson.AppendOmitStr(b, `,"from":"`, r.From)
	return append(b, '}'), true
}

// appendResponse is appendRequest for a Response.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	if len(r.Views) != 0 || !wirejson.PlainString(r.Error) || !wirejson.PlainString(r.Domain) || !wirejson.PlainString(r.Status) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendOmitStr(b, `,"error":"`, r.Error)
	b = wirejson.AppendOmitStr(b, `,"domain":"`, r.Domain)
	b = wirejson.AppendOmitTrue(b, `,"known":true`, r.Known)
	b = wirejson.AppendOmitStr(b, `,"status":"`, r.Status)
	b = wirejson.AppendOmitTrue(b, `,"ok":true`, r.OK)
	return append(b, '}'), true
}

// methodNames and statusNames are the strings a decoded frame's method and
// status are expected to be; wirejson.Intern returns the table's copy so a
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

// hasAt is the seen bit of a request's "at" member.
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
	s := wirejson.Scan(payload)
	var seen uint
	req := *dst
	var at sim.Time
	for s.Next() {
		switch string(s.Key()) {
		case "seq":
			s.Once(&seen, 1)
			req.Seq = s.Uint()
		case "method":
			s.Once(&seen, 2)
			req.Method = wirejson.Intern(s.Str(), methodNames[:])
		case "job_id":
			s.Once(&seen, 4)
			req.JobID = job.ID(s.Int())
		case "at":
			s.Once(&seen, hasAt)
			at = s.Int()
		case "from":
			s.Once(&seen, 16)
			req.From = string(s.Str())
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	if seen&hasAt != 0 {
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
	s := wirejson.Scan(payload)
	var seen uint
	resp := *dst
	for s.Next() {
		switch string(s.Key()) {
		case "seq":
			s.Once(&seen, 1)
			resp.Seq = s.Uint()
		case "error":
			s.Once(&seen, 2)
			resp.Error = string(s.Str())
		case "domain":
			s.Once(&seen, 4)
			resp.Domain = string(s.Str())
		case "known":
			s.Once(&seen, 8)
			resp.Known = s.Bool()
		case "status":
			s.Once(&seen, 16)
			resp.Status = wirejson.Intern(s.Str(), statusNames[:])
		case "ok":
			s.Once(&seen, 32)
			resp.OK = s.Bool()
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	*dst = resp
	return true
}
