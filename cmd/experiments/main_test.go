package main

import (
	"strings"
	"testing"
)

// TestParseExperiments pins -exp validation: every name in the list must
// be known, and the error names each one that is not, so a typo beside a
// valid figure can no longer be silently dropped.
func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    []string // expected set; nil means an error is expected
		errHas  []string // substrings the error must contain
		errLack []string // substrings the error must not contain
	}{
		{name: "single", spec: "fig3", want: []string{"fig3"}},
		{name: "list with spaces", spec: "fig3, validate ,nway", want: []string{"fig3", "validate", "nway"}},
		{name: "all", spec: "all", want: []string{"all"}},
		{name: "one bad among good", spec: "fig3,typo,load", errHas: []string{`"typo"`}, errLack: []string{`"fig3"`, `"load"`}},
		{name: "every bad name listed", spec: "fig11,fig3,bench", errHas: []string{`"fig11"`, `"bench"`}},
		{name: "empty", spec: "", errHas: []string{`""`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExperiments(tc.spec)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExperiments(%q) = %v, want an error", tc.spec, got)
				}
				for _, s := range tc.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not name %s", err, s)
					}
				}
				for _, s := range tc.errLack {
					if strings.Contains(err.Error(), s) {
						t.Errorf("error %q names the valid experiment %s", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("parseExperiments(%q): %v", tc.spec, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parseExperiments(%q) = %v, want %v", tc.spec, got, tc.want)
			}
			for _, n := range tc.want {
				if !got[n] {
					t.Errorf("parseExperiments(%q) lacks %q", tc.spec, n)
				}
			}
		})
	}
}
