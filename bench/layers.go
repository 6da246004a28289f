package main

// perLayer lists the per-layer metrics, measured only in traced runs by
// timing or counting calls into each module's public functions from the
// benchmark's own files. README.md says which end-to-end metric each should
// move, on which workload. A workload reports 0 for a layer that does no
// work on it, or that is not measured there.
var perLayer = []metricDef{
	// workload + arena: trace generation, snapshot, materialisation.
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.generate_ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "workload.capture_s", Unit: "s", Better: "lower"},
	{Name: "workload.materialize_s", Unit: "s", Better: "lower"},
	{Name: "workload.materialize_ns_per_job", Unit: "ns", Better: "lower"},
	// coupled: wiring + SubmitTrace, then the run.
	{Name: "coupled.new_s", Unit: "s", Better: "lower"},
	{Name: "coupled.run_s", Unit: "s", Better: "lower"},
	// sim: the event loop.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.bare_ns_per_event", Unit: "ns", Better: "lower"},
	// resmgr, backfill, policy: the scheduler core.
	{Name: "resmgr.iterations", Unit: "count", Better: "lower"},
	{Name: "resmgr.skips", Unit: "count", Better: "higher"},
	{Name: "resmgr.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "resmgr.iterate_steady_ns", Unit: "ns", Better: "lower"},
	{Name: "resmgr.iterate_churn_ns", Unit: "ns", Better: "lower"},
	{Name: "backfill.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.order_ns", Unit: "ns", Better: "lower"},
	// cosched: Algorithm 1's coordination calls, exact.
	{Name: "cosched.peer_calls", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.get_mate_job", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.get_mate_status", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.can_start_mate", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.try_start_mate", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.start_mate", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls.reconcile_mates", Unit: "count", Better: "lower"},
	{Name: "cosched.peer_calls_per_pair", Unit: "count", Better: "lower"},
	{Name: "cosched.holds_per_pair", Unit: "count", Better: "lower"},
	{Name: "cosched.yields_per_pair", Unit: "count", Better: "lower"},
	// metrics: report folding and table rendering.
	{Name: "metrics.collect_s", Unit: "s", Better: "lower"},
	{Name: "metrics.render_s", Unit: "s", Better: "lower"},
	// experiments + parallel: what the spans do not cover, and scaling.
	{Name: "experiments.residual_s", Unit: "s", Better: "lower"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	// proto: frame codec and one round trip per transport.
	{Name: "proto.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "proto.pipe_call_us", Unit: "us", Better: "lower"},
	{Name: "proto.tcp_call_us", Unit: "us", Better: "lower"},
	{Name: "proto.wire_over_direct", Unit: "ratio", Better: "lower"},
	// peerlink: the resilient link between live daemons.
	{Name: "peerlink.calls_per_pair", Unit: "count", Better: "lower"},
	{Name: "peerlink.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "peerlink.call_us_p95", Unit: "us", Better: "lower"},
	{Name: "peerlink.retries", Unit: "count", Better: "lower"},
	{Name: "peerlink.transport_errors", Unit: "count", Better: "lower"},
	// live: admin interface, driver, and the client's view of a pair.
	{Name: "live.peer_time_share", Unit: "ratio", Better: "lower"},
	{Name: "live.admin_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.hold_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.costart_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.costart_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "live.costart_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.costart_max_ms", Unit: "ms", Better: "lower"},
	{Name: "live.sym_stall_share", Unit: "ratio", Better: "lower"},
	// journal: write side under load, read side on what the run wrote.
	{Name: "journal.appends_per_pair", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs_per_pair", Unit: "count", Better: "lower"},
	{Name: "journal.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.fsync_us_p95", Unit: "us", Better: "lower"},
	{Name: "journal.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "journal.compacts", Unit: "count", Better: "lower"},
	{Name: "journal.compact_ms_max", Unit: "ms", Better: "lower"},
	{Name: "journal.decode_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "journal.replay_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "journal.recover_ms", Unit: "ms", Better: "lower"},
}
