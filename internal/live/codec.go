package live

import (
	"cosched/internal/job"
	"cosched/internal/proto"
	"cosched/internal/wirejson"
)

// The reflection-free codec for the admin frames, built from
// internal/wirejson and held to its rule: encoding/json's bytes, the strict
// canonical shape, everything else left to encoding/json.
// proto.WriteFrame and FrameReader.ReadFrame find it through
// proto.FrameCodec.
var (
	_ proto.FrameCodec = (*AdminRequest)(nil)
	_ proto.FrameCodec = (*AdminResponse)(nil)
)

// opNames are the strings a decoded request's op is expected to be (see
// wirejson.Intern).
var opNames = [...]string{OpSubmit, OpExpect, OpStatus, OpCancel, OpInfo}

// AppendFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminRequest) AppendFrame(b []byte) ([]byte, bool) {
	if r == nil || !wirejson.PlainString(r.Op) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendStr(b, `,"op":"`, r.Op)
	if w := r.Job; w != nil {
		if !wirejson.PlainString(w.Name) {
			return b, false
		}
		b = wirejson.AppendInt(b, `,"job":{"id":`, int64(w.ID))
		b = wirejson.AppendOmitStr(b, `,"name":"`, w.Name)
		b = wirejson.AppendInt(b, `,"nodes":`, int64(w.Nodes))
		b = wirejson.AppendInt(b, `,"runtime_seconds":`, w.Runtime)
		b = wirejson.AppendInt(b, `,"walltime_seconds":`, w.Walltime)
		var ok bool
		if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, w.Mates); !ok {
			return b, false
		}
		b = append(b, '}') //simlint:allow R6 amortized growth of the frame buffer, which proto pools
	}
	b = wirejson.AppendOmitInt(b, `,"job_id":`, int64(r.JobID))
	return append(b, '}'), true //simlint:allow R6 amortized growth of the frame buffer, which proto pools
}

// hasJob is the seen bit of a request's "job" member.
const hasJob = 4

// ParseFrame implements proto.FrameCodec: members the payload omits keep
// their value, the job's included, as with json.Unmarshal.
//
//simlint:hotpath
func (r *AdminRequest) ParseFrame(payload []byte) bool {
	if r == nil {
		return false
	}
	s := wirejson.Scan(payload)
	req := *r
	var w WireJob
	if r.Job != nil {
		w = *r.Job
	}
	var seen uint
	for s.Next() {
		switch string(s.Key()) {
		case "seq":
			s.Once(&seen, 1)
			req.Seq = s.Uint()
		case "op":
			s.Once(&seen, 2)
			req.Op = wirejson.Intern(s.Str(), opNames[:])
		case "job":
			s.Once(&seen, hasJob)
			parseWireJob(&s, &w)
		case "job_id":
			s.Once(&seen, 8)
			req.JobID = job.ID(s.Int())
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	if seen&hasJob != 0 {
		if req.Job == nil {
			req.Job = new(WireJob)
		}
		*req.Job = w
	}
	*r = req
	return true
}

// parseWireJob consumes the object a request's "job" member holds.
//
//simlint:hotpath
func parseWireJob(s *wirejson.Scanner, w *WireJob) {
	var seen uint
	for s.Object(); s.Next(); {
		switch string(s.Key()) {
		case "id":
			s.Once(&seen, 1)
			w.ID = job.ID(s.Int())
		case "name":
			s.Once(&seen, 2)
			w.Name = string(s.Str())
		case "nodes":
			s.Once(&seen, 4)
			w.Nodes = s.IntN()
		case "runtime_seconds":
			s.Once(&seen, 8)
			w.Runtime = s.Int()
		case "walltime_seconds":
			s.Once(&seen, 16)
			w.Walltime = s.Int()
		case "mates":
			s.Once(&seen, 32)
			w.Mates = s.Mates()
		default:
			s.Fail()
		}
	}
}

// AppendFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminResponse) AppendFrame(b []byte) ([]byte, bool) {
	if r == nil || !wirejson.PlainString(r.Error) || !wirejson.PlainString(r.State) || !wirejson.PlainString(r.Domain) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, r.Seq)
	b = wirejson.AppendOmitStr(b, `,"error":"`, r.Error)
	b = wirejson.AppendOmitStr(b, `,"state":"`, r.State)
	b = wirejson.AppendOmitInt(b, `,"start_time":`, r.StartTime)
	b = wirejson.AppendOmitTrue(b, `,"started":true`, r.Started)
	b = wirejson.AppendOmitStr(b, `,"domain":"`, r.Domain)
	b = wirejson.AppendOmitInt(b, `,"nodes":`, int64(r.Nodes))
	b = wirejson.AppendOmitInt(b, `,"free":`, int64(r.Free))
	b = wirejson.AppendOmitInt(b, `,"virtual_now":`, r.VirtualNow)
	return append(b, '}'), true //simlint:allow R6 amortized growth of the frame buffer, which proto pools
}

// ParseFrame implements proto.FrameCodec.
//
//simlint:hotpath
func (r *AdminResponse) ParseFrame(payload []byte) bool {
	if r == nil {
		return false
	}
	s := wirejson.Scan(payload)
	resp := *r
	var seen uint
	for s.Next() {
		switch string(s.Key()) {
		case "seq":
			s.Once(&seen, 1)
			resp.Seq = s.Uint()
		case "error":
			s.Once(&seen, 2)
			resp.Error = string(s.Str())
		case "state":
			s.Once(&seen, 4)
			resp.State = wirejson.Intern(s.Str(), wirejson.StateNames[:])
		case "start_time":
			s.Once(&seen, 8)
			resp.StartTime = s.Int()
		case "started":
			s.Once(&seen, 16)
			resp.Started = s.Bool()
		case "domain":
			s.Once(&seen, 32)
			resp.Domain = string(s.Str())
		case "nodes":
			s.Once(&seen, 64)
			resp.Nodes = s.IntN()
		case "free":
			s.Once(&seen, 128)
			resp.Free = s.IntN()
		case "virtual_now":
			s.Once(&seen, 256)
			resp.VirtualNow = s.Int()
		default:
			return false
		}
	}
	if !s.Done() {
		return false
	}
	*r = resp
	return true
}
