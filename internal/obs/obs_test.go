package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRenderStableOrderAndTwiceIdentical(t *testing.T) {
	r := New()
	// Emit deliberately out of name order, and series out of label order,
	// across two collectors, to prove sorting is the registry's job.
	r.Collect(func(e *Emitter) {
		e.Gauge("zeta_depth", "queue depth", 4, "domain", "b")
		e.Counter("alpha_total", "a counter", 2, "peer", "z")
		e.Counter("alpha_total", "a counter", 7, "peer", "a")
	})
	r.Collect(func(e *Emitter) {
		e.Gauge("zeta_depth", "queue depth", 1, "domain", "a")
		e.Gauge("middle_gauge", "collected", 3.5)
	})

	one := r.Render()
	two := r.Render()
	if !bytes.Equal(one, two) {
		t.Fatalf("render not byte-identical:\n%s\nvs\n%s", one, two)
	}
	want := `# HELP alpha_total a counter
# TYPE alpha_total counter
alpha_total{peer="a"} 7
alpha_total{peer="z"} 2
# HELP middle_gauge collected
# TYPE middle_gauge gauge
middle_gauge 3.5
# HELP zeta_depth queue depth
# TYPE zeta_depth gauge
zeta_depth{domain="a"} 1
zeta_depth{domain="b"} 4
`
	if string(one) != want {
		t.Fatalf("render:\n%s\nwant:\n%s", one, want)
	}
}

// emitPanics reports whether emitting through fn panics.
func emitPanics(fn func(*Emitter)) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	r := New()
	r.Collect(fn)
	r.Render()
	return false
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, bad := range []string{"", "2bad", "has-dash", "has space"} {
		if !emitPanics(func(e *Emitter) { e.Counter(bad, "", 1) }) {
			t.Fatalf("metric name %q accepted", bad)
		}
	}
	if !emitPanics(func(e *Emitter) { e.Counter("ok_total", "", 1, "bad:label", "v") }) {
		t.Fatal("label name with colon accepted")
	}
	if !emitPanics(func(e *Emitter) { e.Counter("ok_total", "", 1, "only_key") }) {
		t.Fatal("odd label list accepted")
	}
	// Emitting a counter name as a gauge is a programming error.
	if !emitPanics(func(e *Emitter) {
		e.Counter("ops_total", "", 1, "peer", "a")
		e.Gauge("ops_total", "", 1, "peer", "b")
	}) {
		t.Fatal("kind mismatch did not panic")
	}
}

func TestLabelEscapingRoundTrips(t *testing.T) {
	r := New()
	hostile := "a\"b\\c\nd"
	r.Collect(func(e *Emitter) { e.Gauge("esc", "help with \\ and\nnewline", 1, "k", hostile) })
	out := r.Render()
	if strings.Contains(string(out), "\nd\"") {
		t.Fatalf("unescaped newline in output:\n%s", out)
	}
	scr, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("esc", "k", hostile); !ok || v != 1 {
		t.Fatalf("escaped label did not round-trip: %+v", scr.Values)
	}
}

func TestCollectedSamplesAndParse(t *testing.T) {
	r := New()
	calls := 0
	r.Collect(func(e *Emitter) {
		calls++
		e.Counter("peer_calls_total", "calls", 42, "peer", "b")
		e.Gauge("jobs_queued", "depth", 17)
	})
	out := r.Render()
	if calls != 1 {
		t.Fatalf("collector ran %d times, want 1", calls)
	}
	scr, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("peer_calls_total", "peer", "b"); !ok || v != 42 {
		t.Fatalf("peer_calls_total = %v, %v", v, ok)
	}
	if v, ok := scr.Value("jobs_queued"); !ok || v != 17 {
		t.Fatalf("jobs_queued = %v, %v", v, ok)
	}
	if scr.Types["peer_calls_total"] != KindCounter || scr.Types["jobs_queued"] != KindGauge {
		t.Fatalf("types = %+v", scr.Types)
	}
	// Label order is canonicalized, so a reordered query still hits.
	r2 := New()
	r2.Collect(func(e *Emitter) { e.Gauge("multi", "", 5, "b", "2", "a", "1") })
	scr2, err := Parse(r2.Render())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr2.Value("multi", "a", "1", "b", "2"); !ok || v != 5 {
		t.Fatalf("canonicalized label lookup failed: %+v", scr2.Values)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric",                        // no value
		"metric{a=\"1\" 2",              // unterminated label block
		"metric nope",                   // unparsable value
		"# TYPE metric histogram",       // unsupported type
		"metric{a=\"1\"} 1 extra trail", // trailing junk
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Fatalf("Parse accepted %q", bad)
		}
	}
	// HELP lines and blank lines are skipped.
	scr, err := Parse([]byte("# HELP m h\n\nm 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("m"); !ok || v != 1 {
		t.Fatalf("simple sample lost: %+v", scr.Values)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := New()
	r.Collect(func(e *Emitter) { e.Counter("served_total", "requests", 5) })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("served_total"); !ok || v != 5 {
		t.Fatalf("served_total = %v, %v", v, ok)
	}
}

// The registry's lock guards the collector list, so a Collect may land
// while scrapes render; run under -race.
func TestConcurrentMutationIsSafe(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Collect(func(e *Emitter) { e.Gauge("level", "", float64(n), "worker", strconv.Itoa(n)) })
				_ = r.Render()
			}
		}(i)
	}
	wg.Wait()
	scr, err := Parse(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scr.Series()); got != 8 {
		t.Fatalf("%d series after 8 workers registered collectors, want 8", got)
	}
}
