package obs

// Metric names shared between the daemon's fault-degradation surface and
// its tests. Pinning them as constants keeps the /metrics contract and the
// degraded-mode tests pointing at one name.
const (
	// MetricJournalDegraded is a 0/1 gauge: 1 while the daemon runs in
	// journal-less degraded mode after its store poisoned.
	MetricJournalDegraded = "cosched_journal_degraded"
	// MetricFsyncFailures counts journal fsync failures. Any nonzero value
	// implies the store is (or was about to be) poisoned: a failed fsync is
	// never retried.
	MetricFsyncFailures = "cosched_journal_fsync_failures_total"
	// MetricHoldsRefused counts Hold decisions downgraded to Yield by the
	// degraded-mode hold budget.
	MetricHoldsRefused = "cosched_holds_refused_total"
)
