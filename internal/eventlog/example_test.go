package eventlog_test

import (
	"fmt"
	"strings"

	"cosched/internal/eventlog"
)

// ExampleVerifyCoStarts checks the paper's §V-B property from a log alone:
// this log shows a pair whose halves started at different instants.
func ExampleVerifyCoStarts() {
	log := `{"t":0,"domain":"A","kind":"submit","job":1,"mates":[{"Domain":"B","Job":1}]}
{"t":0,"domain":"B","kind":"submit","job":1,"mates":[{"Domain":"A","Job":1}]}
{"t":100,"domain":"A","kind":"start","job":1}
{"t":250,"domain":"B","kind":"start","job":1}`
	records, _, err := eventlog.Read(strings.NewReader(log))
	if err != nil {
		panic(err)
	}
	for _, v := range eventlog.VerifyCoStarts(records) {
		fmt.Println(v)
	}
	// Output:
	// A/job 1 vs B/job 1: start instants differ (start 100 vs 250)
}
