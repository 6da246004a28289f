package journal

import (
	"cosched/internal/job"
	"cosched/internal/wirejson"
)

// The reflection-free codec for write-ahead entries and snapshots, built
// from internal/wirejson and held to its rule: encoding/json's bytes, the
// strict canonical shape, everything else left to encoding/json (see the
// package comment for who calls what). The parsers fill a zero destination,
// which is all their callers hand them, and may leave it partly filled when
// they refuse a payload.

// opNames are the strings a decoded entry's op is expected to be (see
// wirejson.Intern).
var opNames = [...]string{
	string(OpExpect), string(OpSubmit), string(OpStart), string(OpHold), string(OpRehold),
	string(OpYield), string(OpRelease), string(OpComplete), string(OpCancel), string(OpPeerDecision),
}

// appendEntry appends json.Marshal(e) to b, or reports false, having
// appended nothing a caller may keep, for an entry with a string that needs
// an escape.
//
//simlint:hotpath
func appendEntry(b []byte, e *Entry) ([]byte, bool) {
	if !wirejson.PlainString(string(e.Op)) || !wirejson.PlainString(e.Name) || !wirejson.PlainString(e.Method) {
		return b, false
	}
	b = wirejson.AppendUint(b, `{"seq":`, e.Seq)
	b = wirejson.AppendInt(b, `,"t":`, e.T)
	b = wirejson.AppendStr(b, `,"op":"`, string(e.Op))
	b = wirejson.AppendOmitInt(b, `,"job":`, int64(e.Job))
	b = wirejson.AppendOmitStr(b, `,"name":"`, e.Name)
	b = wirejson.AppendOmitInt(b, `,"user":`, int64(e.User))
	b = wirejson.AppendOmitInt(b, `,"nodes":`, int64(e.Nodes))
	b = wirejson.AppendOmitInt(b, `,"runtime":`, e.Runtime)
	b = wirejson.AppendOmitInt(b, `,"walltime":`, e.Walltime)
	b = wirejson.AppendOmitInt(b, `,"submit":`, e.Submit)
	var ok bool
	if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, e.Mates); !ok {
		return b, false
	}
	b = wirejson.AppendOmitInt(b, `,"start":`, e.Start)
	b = wirejson.AppendOmitTrue(b, `,"ready":true`, e.Ready)
	b = wirejson.AppendOmitInt(b, `,"ready_at":`, e.ReadyAt)
	b = wirejson.AppendOmitInt(b, `,"yields":`, int64(e.Yields))
	b = wirejson.AppendOmitInt(b, `,"holds":`, int64(e.Holds))
	b = wirejson.AppendOmitInt(b, `,"held_ns":`, e.HeldNS)
	b = wirejson.AppendOmitInt(b, `,"hold_start":`, e.HoldStart)
	b = wirejson.AppendOmitStr(b, `,"method":"`, e.Method)
	b = wirejson.AppendOmitTrue(b, `,"ok":true`, e.OK)
	return append(b, '}'), true //simlint:allow R6 amortized growth of the record buffer, which the store reuses
}

// parseEntry decodes a canonical payload into the zero *e as json.Unmarshal
// would, or reports false.
//
//simlint:hotpath
func parseEntry(payload []byte, e *Entry) bool {
	s := wirejson.Scan(payload)
	var seen uint
	for s.Next() {
		switch string(s.Key()) {
		case "seq":
			s.Once(&seen, 1<<0)
			e.Seq = s.Uint()
		case "t":
			s.Once(&seen, 1<<1)
			e.T = s.Int()
		case "op":
			s.Once(&seen, 1<<2)
			e.Op = Op(wirejson.Intern(s.Str(), opNames[:]))
		case "job":
			s.Once(&seen, 1<<3)
			e.Job = job.ID(s.Int())
		case "name":
			s.Once(&seen, 1<<4)
			e.Name = string(s.Str())
		case "user":
			s.Once(&seen, 1<<5)
			e.User = s.IntN()
		case "nodes":
			s.Once(&seen, 1<<6)
			e.Nodes = s.IntN()
		case "runtime":
			s.Once(&seen, 1<<7)
			e.Runtime = s.Int()
		case "walltime":
			s.Once(&seen, 1<<8)
			e.Walltime = s.Int()
		case "submit":
			s.Once(&seen, 1<<9)
			e.Submit = s.Int()
		case "mates":
			s.Once(&seen, 1<<10)
			e.Mates = s.Mates()
		case "start":
			s.Once(&seen, 1<<11)
			e.Start = s.Int()
		case "ready":
			s.Once(&seen, 1<<12)
			e.Ready = s.Bool()
		case "ready_at":
			s.Once(&seen, 1<<13)
			e.ReadyAt = s.Int()
		case "yields":
			s.Once(&seen, 1<<14)
			e.Yields = s.IntN()
		case "holds":
			s.Once(&seen, 1<<15)
			e.Holds = s.IntN()
		case "held_ns":
			s.Once(&seen, 1<<16)
			e.HeldNS = s.Int()
		case "hold_start":
			s.Once(&seen, 1<<17)
			e.HoldStart = s.Int()
		case "method":
			s.Once(&seen, 1<<18)
			e.Method = string(s.Str())
		case "ok":
			s.Once(&seen, 1<<19)
			e.OK = s.Bool()
		default:
			return false
		}
	}
	return s.Done()
}

// appendSnapshot is appendEntry for a snapshot. A nil job table, which
// json.Marshal writes as null, is left to it.
//
//simlint:hotpath
func appendSnapshot(b []byte, snap *Snapshot) ([]byte, bool) {
	if snap.Jobs == nil || !wirejson.PlainString(snap.Domain) {
		return b, false
	}
	b = wirejson.AppendStr(b, `{"domain":"`, snap.Domain)
	b = wirejson.AppendUint(b, `,"seq":`, snap.Seq)
	b = wirejson.AppendInt(b, `,"t":`, snap.T)
	sep := `,"jobs":[{"id":`
	for i := range snap.Jobs {
		r := &snap.Jobs[i]
		if !wirejson.PlainString(r.Name) || !wirejson.PlainString(r.State) {
			return b, false
		}
		b = wirejson.AppendInt(b, sep, int64(r.ID))
		sep = `,{"id":`
		b = wirejson.AppendOmitStr(b, `,"name":"`, r.Name)
		b = wirejson.AppendOmitInt(b, `,"user":`, int64(r.User))
		b = wirejson.AppendInt(b, `,"nodes":`, int64(r.Nodes))
		b = wirejson.AppendInt(b, `,"runtime":`, r.Runtime)
		b = wirejson.AppendInt(b, `,"walltime":`, r.Walltime)
		b = wirejson.AppendInt(b, `,"submit":`, r.Submit)
		var ok bool
		if b, ok = wirejson.AppendOmitMates(b, `,"mates":`, r.Mates); !ok {
			return b, false
		}
		b = wirejson.AppendStr(b, `,"state":"`, r.State)
		b = wirejson.AppendOmitInt(b, `,"start":`, r.Start)
		b = wirejson.AppendOmitInt(b, `,"end":`, r.End)
		b = wirejson.AppendOmitInt(b, `,"hold_start":`, r.HoldStart)
		b = wirejson.AppendOmitInt(b, `,"yields":`, int64(r.Yields))
		b = wirejson.AppendOmitInt(b, `,"holds":`, int64(r.Holds))
		b = wirejson.AppendOmitInt(b, `,"held_ns":`, r.HeldNS)
		b = wirejson.AppendOmitTrue(b, `,"ready":true`, r.Ready)
		b = wirejson.AppendOmitInt(b, `,"ready_at":`, r.ReadyAt)
		b = append(b, '}') //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
	}
	if len(snap.Jobs) == 0 {
		b = append(b, `,"jobs":[`...) //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
	}
	return append(b, `]}`...), true //simlint:allow R6 amortized growth of the snapshot buffer, which the store reuses
}

// parseSnapshot is parseEntry for a snapshot.
//
//simlint:hotpath
func parseSnapshot(data []byte, snap *Snapshot) bool {
	s := wirejson.Scan(data)
	var seen uint
	for s.Next() {
		switch string(s.Key()) {
		case "domain":
			s.Once(&seen, 1)
			snap.Domain = string(s.Str())
		case "seq":
			s.Once(&seen, 2)
			snap.Seq = s.Uint()
		case "t":
			s.Once(&seen, 4)
			snap.T = s.Int()
		case "jobs":
			s.Once(&seen, 8)
			snap.Jobs = []JobRecord{} // `[]` decodes to an empty table, not a nil one
			for s.Array(); s.Elem(); {
				snap.Jobs = append(snap.Jobs, JobRecord{}) //simlint:allow R6 amortized growth of the job table being read back
				parseJobRecord(&s, &snap.Jobs[len(snap.Jobs)-1])
			}
		default:
			return false
		}
	}
	return s.Done()
}

// parseJobRecord consumes one object of a snapshot's job table into the
// zero *r.
//
//simlint:hotpath
func parseJobRecord(s *wirejson.Scanner, r *JobRecord) {
	var seen uint
	for s.Object(); s.Next(); {
		switch string(s.Key()) {
		case "id":
			s.Once(&seen, 1<<0)
			r.ID = job.ID(s.Int())
		case "name":
			s.Once(&seen, 1<<1)
			r.Name = string(s.Str())
		case "user":
			s.Once(&seen, 1<<2)
			r.User = s.IntN()
		case "nodes":
			s.Once(&seen, 1<<3)
			r.Nodes = s.IntN()
		case "runtime":
			s.Once(&seen, 1<<4)
			r.Runtime = s.Int()
		case "walltime":
			s.Once(&seen, 1<<5)
			r.Walltime = s.Int()
		case "submit":
			s.Once(&seen, 1<<6)
			r.Submit = s.Int()
		case "mates":
			s.Once(&seen, 1<<7)
			r.Mates = s.Mates()
		case "state":
			s.Once(&seen, 1<<8)
			r.State = wirejson.Intern(s.Str(), wirejson.StateNames[:])
		case "start":
			s.Once(&seen, 1<<9)
			r.Start = s.Int()
		case "end":
			s.Once(&seen, 1<<10)
			r.End = s.Int()
		case "hold_start":
			s.Once(&seen, 1<<11)
			r.HoldStart = s.Int()
		case "yields":
			s.Once(&seen, 1<<12)
			r.Yields = s.IntN()
		case "holds":
			s.Once(&seen, 1<<13)
			r.Holds = s.IntN()
		case "held_ns":
			s.Once(&seen, 1<<14)
			r.HeldNS = s.Int()
		case "ready":
			s.Once(&seen, 1<<15)
			r.Ready = s.Bool()
		case "ready_at":
			s.Once(&seen, 1<<16)
			r.ReadyAt = s.Int()
		default:
			s.Fail()
		}
	}
}
