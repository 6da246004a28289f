package main

import "testing"

func TestMemberFlagParsing(t *testing.T) {
	var m memberFlags
	cases := []struct {
		in      string
		domain  string
		addr    string
		nodes   int
		runtime int64
	}{
		{"hpc=localhost:7101:512:600", "hpc", "localhost:7101", 512, 600},
		{"viz=10.0.0.2:9000:8:3600", "viz", "10.0.0.2:9000", 8, 3600},
		{"a=sock:4:60", "a", "sock", 4, 60}, // addr without port
	}
	for _, c := range cases {
		if err := m.Set(c.in); err != nil {
			t.Fatalf("Set(%q): %v", c.in, err)
		}
		got := m[len(m)-1]
		if got.domain != c.domain || got.addr != c.addr ||
			got.nodes != c.nodes || got.runtime != c.runtime {
			t.Fatalf("Set(%q) = %+v", c.in, got)
		}
	}
	if m.String() == "" {
		t.Fatal("String() empty")
	}
	// A domain already parsed is refused: its two members would share one
	// job ID on one daemon.
	if err := m.Set("hpc=otherhost:7101:8:60"); err == nil {
		t.Fatal("repeated domain accepted")
	}
	if len(m) != len(cases) {
		t.Fatalf("%d members after a refused repeat, want %d", len(m), len(cases))
	}
}

func TestMemberFlagRejectsMalformed(t *testing.T) {
	var m memberFlags
	for _, in := range []string{
		"",               // nothing
		"hpc",            // no '='
		"=x:4:60",        // empty domain
		"hpc=addr",       // too few segments
		"hpc=a:b:c:d:e",  // too many segments
		"hpc=addr:x:600", // bad node count
		"hpc=addr:512:y", // bad runtime
	} {
		if err := m.Set(in); err == nil {
			t.Errorf("Set(%q) accepted", in)
		}
	}
}
