// Command simlint is the repository's determinism and contract analyzer:
// it type-checks every package (tests included) and enforces the six
// rules cataloged in internal/lint and ARCHITECTURE.md §6 — map-iteration
// order leaking into ordered state, wall-clock/global-RNG use in sim-pure
// packages, Manager concurrency and escape, floating-point equality,
// hot-path allocations, and discarded durability errors. Each rule
// matches at the call site; none follows calls. Intentional exceptions
// carry a `//simlint:allow R<n> <reason>` comment; stale or reasonless
// allows are themselves findings.
//
// Usage:
//
//	simlint ./...             # lint the whole module (the ci.sh gate)
//	simlint -tags debug ./... # lint the debug-build files too
//	simlint -json ./...       # machine-readable findings, allows included
//	simlint -rules            # print the rule catalog
//
// Exit status: 0 clean, 1 findings, 2 analysis failure. With -json,
// allow-suppressed findings are emitted (marked "allowed") but only
// active findings drive the exit status.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"cosched/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags to lint under (e.g. debug)")
	rules := flag.Bool("rules", false, "print the rule catalog and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (allow-suppressed findings included, marked)")
	flag.Parse()

	if *rules {
		for _, r := range lint.Rules {
			fmt.Printf("%s — %s\n    %s\n", r.ID, r.Title, r.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		all, err := lint.RunAll(cwd, tagList, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		// Encode, then decode our own output before printing: the CI
		// gate relies on -json always being parseable.
		var buf bytes.Buffer
		if err := lint.WriteJSON(&buf, all); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: encoding findings: %v\n", err)
			os.Exit(2)
		}
		if _, err := lint.ReadJSON(bytes.NewReader(buf.Bytes())); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: self-check: emitted JSON does not parse: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(buf.Bytes())
		active := 0
		for _, f := range all {
			if !f.Allowed {
				// stdout is usually redirected to a file; name the
				// failure where the person running the gate sees it.
				fmt.Fprintln(os.Stderr, f)
				active++
			}
		}
		if active > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", active)
			os.Exit(1)
		}
		return
	}

	findings, err := lint.Run(cwd, tagList, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
