package main

import (
	"io"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; "" means the args must parse
	}{
		{"defaults", nil, ""},
		{"journal flags", []string{"-journal-dir", "j", "-snapshot-every", "64"}, ""},
		{"release off", []string{"-release-minutes", "0"}, ""},
		{"zero peer timeout", []string{"-peer-timeout", "0s"}, "-peer-timeout"},
		{"zero snapshot cadence", []string{"-snapshot-every", "0"}, "-snapshot-every"},
		{"negative snapshot cadence", []string{"-snapshot-every", "-3"}, "-snapshot-every"},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative release interval", []string{"-release-minutes", "-1"}, "-release-minutes"},
		{"zero speedup", []string{"-speedup", "0"}, "-speedup"},
		{"held fraction above one", []string{"-max-held-fraction", "1.5"}, "-max-held-fraction"},
		{"held fraction zero", []string{"-max-held-fraction", "0"}, "-max-held-fraction"},
		{"negative max yields", []string{"-max-yields", "-2"}, "-max-yields"},
		{"empty name", []string{"-name", ""}, "-name"},
		{"malformed peer", []string{"-peer", "nocolon"}, "name=addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v): %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v) accepted an invalid configuration: %+v", tc.args, cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) = %q, want mention of %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestFlagDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JournalDir != "" {
		t.Fatalf("journaling should be off by default, got dir %q", cfg.JournalDir)
	}
	if cfg.SnapshotEvery != 1024 {
		t.Fatalf("default snapshot cadence = %d, want 1024", cfg.SnapshotEvery)
	}
}
