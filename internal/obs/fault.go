package obs

// Metric names shared between the daemon's fault-degradation surface and
// the chaos-campaign harness. Pinning them as constants keeps the /metrics
// contract, the campaign gates, and the chaos tests pointing at one name.
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
	// MetricCampaignFaults counts faults actually fired during a chaos
	// campaign, labeled by seam (journal / peerlink).
	MetricCampaignFaults = "cosched_campaign_faults_injected_total"
)

// CampaignFaults returns the seam-labeled campaign fault counter on reg.
// The campaign harness calls this once per seam; tests scrape the same
// names through the registry's /metrics handler.
func CampaignFaults(reg *Registry, seam string) Counter {
	return reg.Counter(MetricCampaignFaults,
		"Faults fired by the chaos campaign engine, by injection seam.",
		"seam", seam)
}
