package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"cosched/internal/job"
)

// holder is the smallest value with an `omitempty` mates member and a
// nested object, the two shapes the kit adds to what proto's frames needed.
type holder struct {
	N     int64         `json:"n"`
	Mates []job.MateRef `json:"mates,omitempty"`
	In    *holder       `json:"in,omitempty"`
}

func appendHolder(b []byte, h *holder) ([]byte, bool) {
	b = AppendInt(b, `{"n":`, h.N)
	var ok bool
	if b, ok = AppendOmitMates(b, `,"mates":`, h.Mates); !ok {
		return b, false
	}
	if h.In != nil {
		b = append(b, `,"in":`...)
		if b, ok = appendHolder(b, h.In); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

func parseHolder(s *Scanner, h *holder) {
	var seen uint
	for s.Next() {
		switch string(s.Key()) {
		case "n":
			s.Once(&seen, 1)
			h.N = s.Int()
		case "mates":
			s.Once(&seen, 2)
			h.Mates = s.Mates()
		case "in":
			s.Once(&seen, 4)
			h.In = new(holder)
			s.Object()
			parseHolder(s, h.In)
		default:
			s.Fail()
		}
	}
}

// TestNestedShapesMatchEncodingJSON: what the appenders write for mates and
// a nested object is json.Marshal's, and the scanner reads it back to what
// json.Unmarshal gives.
func TestNestedShapesMatchEncodingJSON(t *testing.T) {
	for _, h := range []holder{
		{},
		{N: 1, Mates: []job.MateRef{{Domain: "B", Job: 7}}},
		{N: -2, Mates: []job.MateRef{{Domain: "", Job: math.MinInt64}, {Domain: "eureka", Job: math.MaxInt64}, {}}},
		{N: 3, In: &holder{N: 4, Mates: []job.MateRef{{Domain: "A", Job: 1}}, In: &holder{}}},
		{N: 5, Mates: []job.MateRef{{Domain: "B", Job: 1}}, In: &holder{N: 6}},
	} {
		want, err := json.Marshal(&h)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendHolder(nil, &h)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("append %+v\n got %q (%v)\nwant %q", h, got, ok, want)
		}
		var back holder
		s := Scan(got)
		parseHolder(&s, &back)
		if !s.Done() || !reflect.DeepEqual(back, h) {
			t.Fatalf("parse %q: %+v (done %v), want %+v", got, back, s.Done(), h)
		}
	}
	if _, ok := AppendOmitMates(nil, `,"mates":`, []job.MateRef{{Domain: "B"}, {Domain: "a<b"}}); ok {
		t.Fatal("a domain that needs an escape was written verbatim")
	}
}

// TestScannerRefusesNonCanonicalNesting: everything here is JSON that
// encoding/json accepts and json.Marshal never writes.
func TestScannerRefusesNonCanonicalNesting(t *testing.T) {
	for name, payload := range map[string]string{
		"empty mates":          `{"n":1,"mates":[]}`,
		"null mates":           `{"n":1,"mates":null}`,
		"mate without job":     `{"n":1,"mates":[{"Domain":"B"}]}`,
		"mate without domain":  `{"n":1,"mates":[{"Job":1}]}`,
		"empty mate":           `{"n":1,"mates":[{}]}`,
		"duplicate mate key":   `{"n":1,"mates":[{"Domain":"B","Job":1,"Job":2}]}`,
		"lowercase mate key":   `{"n":1,"mates":[{"domain":"B","Job":1}]}`,
		"unknown mate key":     `{"n":1,"mates":[{"Domain":"B","Job":1,"x":0}]}`,
		"mate not an object":   `{"n":1,"mates":[1]}`,
		"trailing comma":       `{"n":1,"mates":[{"Domain":"B","Job":1},]}`,
		"leading comma":        `{"n":1,"mates":[,{"Domain":"B","Job":1}]}`,
		"space in array":       `{"n":1,"mates":[ {"Domain":"B","Job":1}]}`,
		"unclosed array":       `{"n":1,"mates":[{"Domain":"B","Job":1}`,
		"array closed by }":    `{"n":1,"mates":[{"Domain":"B","Job":1}}}`,
		"null nested":          `{"n":1,"in":null}`,
		"nested not an object": `{"n":1,"in":[]}`,
		"unclosed nested":      `{"n":1,"in":{"n":2}`,
		"comma after brace":    `{,"n":1}`,
		"duplicate in nested":  `{"n":1,"in":{"n":2,"n":3}}`,
		"no object":            `"n"`,
	} {
		var h holder
		s := Scan([]byte(payload))
		parseHolder(&s, &h)
		if s.Done() {
			t.Errorf("%s: scanner accepted %q as %+v", name, payload, h)
		}
	}
	// A nested object's member set is its own: the same key at two depths
	// is not a duplicate.
	var h holder
	s := Scan([]byte(`{"in":{"n":2},"n":1}`))
	parseHolder(&s, &h)
	if !s.Done() || h.N != 1 || h.In == nil || h.In.N != 2 {
		t.Fatalf("same key at two depths: %+v (done %v)", h, s.Done())
	}
}

// TestIntNRange: a member of Go type int takes what fits an int.
func TestIntNRange(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"0", true}, {"-1", true}, {"2147483647", true},
		{"9223372036854775807", math.MaxInt == math.MaxInt64},
		{"9223372036854775808", false}, {"-9223372036854775809", false},
	} {
		s := Scanner{b: []byte(tc.in)}
		v := s.IntN()
		if want, _ := json.Number(tc.in).Int64(); s.Done() != tc.ok || tc.ok && int64(v) != want {
			t.Errorf("IntN(%s) = %d, done %v; want ok %v", tc.in, v, s.Done(), tc.ok)
		}
	}
}

// TestMatesIntoReusesItsArrayAndInternsDomains: MatesInto decodes into the
// array it is given, as json.Unmarshal reuses a slice's, and hands back the
// table's copy of a domain name it has met; a table that is full still
// decodes, copying the names past it.
func TestMatesIntoReusesItsArrayAndInternsDomains(t *testing.T) {
	mates := func(s Scanner, dst []job.MateRef, domains *[]string) []job.MateRef {
		s.Next()
		s.Key()
		return s.MatesInto(dst, domains)
	}
	payload := []byte(`{"mates":[{"Domain":"beta","Job":7}]}`)
	var domains []string
	first := mates(Scan(payload), nil, &domains)
	second := mates(Scan(payload), first, &domains)
	if len(second) != 1 || &second[0] != &first[0] {
		t.Fatalf("second decode %v did not reuse the first's array", second)
	}
	if len(domains) != 1 || unsafe.StringData(second[0].Domain) != unsafe.StringData(domains[0]) {
		t.Fatalf("domain %q not interned in %q", second[0].Domain, domains)
	}
	domains = domains[:0]
	for i := range maxInterned + 2 {
		name := []byte{'d', byte('a' + i)}
		if got := InternAdd(name, &domains); got != string(name) {
			t.Fatalf("InternAdd(%q) = %q", name, got)
		}
	}
	if len(domains) != maxInterned {
		t.Fatalf("the table holds %d names, want at most %d", len(domains), maxInterned)
	}
}
