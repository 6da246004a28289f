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

// parseHolder reads a holder up to its closing brace, which is Done's to
// check for the outer object and the caller's for a nested one.
func parseHolder(s *Scanner, h *holder) {
	s.Want(`{"n":`)
	h.N = s.Int()
	if s.Has(`,"mates":`) {
		h.Mates = s.Mates()
	}
	if s.Has(`,"in":`) {
		h.In = new(holder)
		parseHolder(s, h.In)
		s.Want(`}`)
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
		"mate members swapped": `{"n":1,"mates":[{"Job":1,"Domain":"B"}]}`,
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
		"duplicate member":     `{"n":1,"n":2}`,
		"members swapped":      `{"mates":[{"Domain":"B","Job":1}],"n":1}`,
		"nested first":         `{"in":{"n":2},"n":1}`,
		"required missing":     `{"mates":[{"Domain":"B","Job":1}]}`,
		"empty object":         `{}`,
		"no object":            `"n"`,
	} {
		var h holder
		s := Scan([]byte(payload))
		parseHolder(&s, &h)
		if s.Done() {
			t.Errorf("%s: scanner accepted %q as %+v", name, payload, h)
		}
	}
	// A nested object's members are its own: the same key at two depths
	// is not a duplicate.
	var h holder
	s := Scan([]byte(`{"n":1,"in":{"n":2}}`))
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
		s := Scanner{b: []byte(tc.in + "}")}
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
		s.Want(`{"mates":`)
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

// TestPlainTable: the table answers what the predicate it replaced did, for
// every byte.
func TestPlainTable(t *testing.T) {
	for i := 0; i < 256; i++ {
		c := byte(i)
		want := c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
		if Plain(c) != want {
			t.Errorf("Plain(%#x) = %v, want %v", c, Plain(c), want)
		}
	}
}

// scannerBoundaries are the payloads at the edges of the scanner's fast
// paths: 19, 20 and 21 digits (where Uint starts checking for overflow),
// the int64 extremes, leading zeros, and a byte that is not Plain right
// before a closing quote. Each is one member, "v", of an object; proto's
// FuzzFrameCodec seeds its corpus with the same values under its keys.
var scannerBoundaries = []string{
	`{"v":9999999999999999999}`,
	`{"v":18446744073709551615}`,
	`{"v":18446744073709551616}`,
	`{"v":99999999999999999999}`,
	`{"v":100000000000000000000}`,
	`{"v":9223372036854775807}`,
	`{"v":9223372036854775808}`,
	`{"v":-9223372036854775808}`,
	`{"v":-9223372036854775809}`,
	`{"v":0}`,
	`{"v":00}`,
	`{"v":007}`,
	`{"v":-0}`,
	`{"v":-00}`,
	`{"v":"ab"}`,
	"{\"v\":\"ab\x7f\"}",
	"{\"v\":\"ab\x1f\"}",
	`{"v":"ab<"}`,
	`{"v":"ab\"}`,
	`{"v":"ab"`,
}

// TestScannerBoundaries: on each boundary payload, Uint, Int, IntN and Str
// take only what json.Unmarshal accepts into a member of their Go type, and
// decode it to the same value; the named cases pin which side of each
// boundary the scanner itself takes.
func TestScannerBoundaries(t *testing.T) {
	parse := func(payload string, member func(*Scanner)) bool {
		s := Scan([]byte(payload))
		s.Want(`{"v":`)
		member(&s)
		return s.Done()
	}
	// A string member's key carries the opening quote.
	str := func(s *Scanner) []byte {
		s.Want(`"`)
		return s.Str()
	}
	for _, payload := range scannerBoundaries {
		var u uint64
		var i int64
		var n int
		var got string
		okU := parse(payload, func(s *Scanner) { u = s.Uint() })
		okI := parse(payload, func(s *Scanner) { i = s.Int() })
		okN := parse(payload, func(s *Scanner) { n = s.IntN() })
		okS := parse(payload, func(s *Scanner) { got = string(str(s)) })
		var ref struct {
			U uint64 `json:"v"`
		}
		var refI struct {
			I int64 `json:"v"`
		}
		var refN struct {
			N int `json:"v"`
		}
		var refS struct {
			S string `json:"v"`
		}
		errU := json.Unmarshal([]byte(payload), &ref)
		errI := json.Unmarshal([]byte(payload), &refI)
		errN := json.Unmarshal([]byte(payload), &refN)
		errS := json.Unmarshal([]byte(payload), &refS)
		// The scanner may refuse what encoding/json takes (it is left to
		// encoding/json then), but never take what it refuses, nor read a
		// value encoding/json reads otherwise.
		if okU && (errU != nil || u != ref.U) {
			t.Errorf("Uint took %s as %d; encoding/json: %d, %v", payload, u, ref.U, errU)
		}
		if okI && (errI != nil || i != refI.I) {
			t.Errorf("Int took %s as %d; encoding/json: %d, %v", payload, i, refI.I, errI)
		}
		if okN && (errN != nil || n != refN.N || int64(n) != i) {
			t.Errorf("IntN took %s as %d; encoding/json: %d, %v", payload, n, refN.N, errN)
		}
		if okS && (errS != nil || got != refS.S) {
			t.Errorf("Str took %q as %q; encoding/json: %q, %v", payload, got, refS.S, errS)
		}
	}
	// The boundaries themselves, by name.
	for _, tc := range []struct {
		payload string
		member  func(*Scanner)
		ok      bool
	}{
		{`{"v":18446744073709551615}`, func(s *Scanner) { s.Uint() }, true},
		{`{"v":18446744073709551616}`, func(s *Scanner) { s.Uint() }, false},
		{`{"v":100000000000000000000}`, func(s *Scanner) { s.Uint() }, false},
		{`{"v":9999999999999999999}`, func(s *Scanner) { s.Uint() }, true},
		{`{"v":-9223372036854775808}`, func(s *Scanner) { s.Int() }, true},
		{`{"v":9223372036854775808}`, func(s *Scanner) { s.Int() }, false},
		{`{"v":-9223372036854775809}`, func(s *Scanner) { s.Int() }, false},
		{`{"v":-9223372036854775808}`, func(s *Scanner) { s.IntN() }, math.MinInt == math.MinInt64},
		{`{"v":00}`, func(s *Scanner) { s.Uint() }, false},
		{`{"v":-00}`, func(s *Scanner) { s.Int() }, false},
		{`{"v":-0}`, func(s *Scanner) { s.Int() }, true},
		{"{\"v\":\"ab\x7f\"}", func(s *Scanner) { str(s) }, false},
		{`{"v":"ab<"}`, func(s *Scanner) { str(s) }, false},
		{`{"v":"ab"}`, func(s *Scanner) { str(s) }, true},
	} {
		if ok := parse(tc.payload, tc.member); ok != tc.ok {
			t.Errorf("%s: scanner accepted %v, want %v", tc.payload, ok, tc.ok)
		}
	}
}
