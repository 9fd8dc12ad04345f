package main

// metricDef describes one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	// gate marks a deterministic count that must repeat exactly between
	// two traced runs of one seed of an in-process workload.
	gate bool
}

// endToEnd are the metrics of a timed run.
var endToEnd = []metricDef{
	{name: "job_s.p50", unit: "s", better: "lower"},
	{name: "job_s.p90", unit: "s", better: "lower"},
	{name: "scenarios_per_s", unit: "1/s", better: "higher"},
	{name: "pass_ratio", unit: "fraction", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "alloc_bytes_per_scenario", unit: "B", better: "lower"},
	{name: "live_heap_bytes", unit: "B", better: "lower"},
}

// perLayer are the metrics of a traced run, named by layer. Times are
// seconds summed over the traced pass and counts are summed over it, except
// pmem.peak_snapshot_bytes, the largest of any job.
var perLayer = []metricDef{
	{name: "core.new_s", unit: "s", better: "lower"},
	{name: "core.run_s", unit: "s", better: "lower"},
	{name: "core.engine_self_s", unit: "s", better: "lower"},
	{name: "core.scenarios", unit: "count", better: "lower", gate: true},
	{name: "core.executions", unit: "count", better: "lower", gate: true},
	{name: "core.steps", unit: "count", better: "lower", gate: true},

	{name: "context.pre_failure_s", unit: "s", better: "lower"},
	{name: "context.pre_failure_calls", unit: "count", better: "lower", gate: true},
	{name: "context.post_failure_s", unit: "s", better: "lower"},
	{name: "context.post_failure_calls", unit: "count", better: "lower", gate: true},

	{name: "refine.load_refinements", unit: "count", better: "lower", gate: true},
	{name: "refine.rf_candidates", unit: "count", better: "lower", gate: true},
	{name: "refine.skipped", unit: "count", better: "higher", gate: true},
	{name: "refine.s", unit: "s", better: "lower"},

	{name: "tso.sb_evictions", unit: "count", better: "lower", gate: true},
	{name: "tso.fb_writebacks", unit: "count", better: "lower", gate: true},
	{name: "tso.load_sb_hits", unit: "count", better: "higher", gate: true},

	{name: "pmem.load_cache_hits", unit: "count", better: "higher", gate: true},
	{name: "pmem.peak_snapshot_bytes", unit: "B", better: "lower"},

	{name: "snapshot.restores", unit: "count", better: "higher", gate: true},
	{name: "snapshot.choice_restores", unit: "count", better: "higher", gate: true},
	{name: "snapshot.replay_steps", unit: "count", better: "lower", gate: true},
	{name: "snapshot.replay_steps_saved", unit: "count", better: "higher", gate: true},
	{name: "snapshot.restore_s", unit: "s", better: "lower"},
	{name: "snapshot.replay_s", unit: "s", better: "lower"},

	{name: "por.fingerprint_hits", unit: "count", better: "higher", gate: true},
	{name: "por.fingerprint_misses", unit: "count", better: "lower", gate: true},
	{name: "por.scenarios_pruned", unit: "count", better: "higher", gate: true},
	{name: "por.rf_elisions", unit: "count", better: "higher", gate: true},
	{name: "por.fingerprint_s", unit: "s", better: "lower"},

	{name: "forensics.minimize_s", unit: "s", better: "lower"},
	{name: "forensics.minimize_trials", unit: "count", better: "lower", gate: true},
	{name: "forensics.witness_s", unit: "s", better: "lower"},

	{name: "dist.server_s.lease", unit: "s", better: "lower"},
	{name: "dist.server_s.commit", unit: "s", better: "lower"},
	{name: "dist.server_s.heartbeat", unit: "s", better: "lower"},
	{name: "dist.server_s.jobs", unit: "s", better: "lower"},
	{name: "dist.rpcs.lease", unit: "count", better: "lower"},
	{name: "dist.rpcs.commit", unit: "count", better: "lower"},
	{name: "dist.rpcs.heartbeat", unit: "count", better: "lower"},
	{name: "dist.rpc_s.lease", unit: "s", better: "lower"},
	{name: "dist.rpc_s.commit", unit: "s", better: "lower"},
	{name: "dist.rpcs_per_scenario", unit: "ratio", better: "lower"},
	{name: "dist.wire_bytes_per_scenario", unit: "B", better: "lower"},
	{name: "dist.worker_idle_s", unit: "s", better: "lower"},
	{name: "dist.worker_context_s", unit: "s", better: "lower"},

	{name: "obs.trace_overhead", unit: "ratio", better: "lower"},

	{name: "gc.cycles", unit: "count", better: "lower"},
	{name: "gc.pause_s", unit: "s", better: "lower"},
}
