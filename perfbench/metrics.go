package main

// metricDef is one reported metric. For a per-layer metric, target
// names the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed regression share
	target             string  // per-layer only
}

// endToEnd are what a covserve client sees; every workload reports
// every one. Bounds are the share of the parent's median a metric may
// worsen by before a change counts as a regression. They are all the
// 0.25 ceiling: on a shared 2-vCPU machine repeats of one seed differ
// by 10% and more when neighbours load the host.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "server_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "coverage_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "coverage_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mups_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mups_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "plan_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "plan_tail_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics. A workload where a layer does
// no work reports 0 for it.
var perLayer = []metricDef{
	{name: "covserve.self_ms.coverage", unit: "ms", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "covserve.self_ms.mups", unit: "ms", better: "lower", target: "mups_p50_ms on audit-cold"},
	{name: "covserve.self_ms.plan", unit: "ms", better: "lower", target: "plan_p50_ms on audit-cold"},
	{name: "covserve.self_ms.mutate", unit: "ms", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "covserve.req_bytes.coverage", unit: "B", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "covserve.req_bytes.mups", unit: "B", better: "lower", target: "mups_p50_ms on audit-cold"},
	{name: "covserve.req_bytes.plan", unit: "B", better: "lower", target: "plan_p50_ms on audit-cold"},
	{name: "covserve.req_bytes.mutate", unit: "B", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "covserve.resp_bytes.coverage", unit: "B", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "covserve.resp_bytes.mups", unit: "B", better: "lower", target: "mups_p50_ms on audit-cold"},
	{name: "covserve.resp_bytes.plan", unit: "B", better: "lower", target: "plan_p50_ms on audit-cold"},
	{name: "covserve.resp_bytes.mutate", unit: "B", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "registry.acquire_us", unit: "us", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "registry.restores", unit: "count", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "registry.evictions", unit: "count", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "pattern.parse_us", unit: "us", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "engine.coverage_batch_us", unit: "us", better: "lower", target: "coverage_p50_ms on probe-read"},
	{name: "engine.mups_us.hit", unit: "us", better: "lower", target: "mups_p50_ms on probe-read"},
	{name: "engine.mups_us.search", unit: "us", better: "lower", target: "mups_p50_ms on audit-cold"},
	{name: "engine.mups_us.repair", unit: "us", better: "lower", target: "mups_p50_ms on ingest-replicated"},
	{name: "engine.mup_cache_hit_ratio", unit: "ratio", better: "higher", target: "mups_p50_ms on all workloads"},
	{name: "engine.mup_lookups", unit: "count", better: "lower", target: "base of engine.mup_cache_hit_ratio"},
	{name: "engine.full_searches", unit: "count", better: "lower", target: "mups_p50_ms on all workloads"},
	{name: "engine.repairs", unit: "count", better: "lower", target: "mups_p50_ms on ingest-replicated"},
	{name: "engine.bidir_repairs", unit: "count", better: "lower", target: "mups_p50_ms on ingest-replicated"},
	{name: "engine.compactions", unit: "count", better: "lower", target: "mups_p50_ms on ingest-replicated"},
	{name: "engine.append_us", unit: "us", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "engine.delete_us", unit: "us", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "engine.plan_us", unit: "us", better: "lower", target: "plan_p50_ms on audit-cold and ingest-replicated"},
	{name: "engine.plan_hit_ratio", unit: "ratio", better: "higher", target: "plan_p50_ms on probe-read"},
	{name: "engine.plan_lookups", unit: "count", better: "lower", target: "base of engine.plan_hit_ratio"},
	{name: "engine.plan_builds", unit: "count", better: "lower", target: "plan_p50_ms on audit-cold"},
	{name: "engine.plan_repairs", unit: "count", better: "lower", target: "plan_p50_ms on ingest-replicated"},
	{name: "engine.plan_rebuilds", unit: "count", better: "lower", target: "plan_p50_ms on ingest-replicated"},
	{name: "enhance.targets", unit: "count", better: "lower", target: "plan_p50_ms on audit-cold and ingest-replicated"},
	{name: "enhance.tuples", unit: "count", better: "lower", target: "plan_p50_ms on audit-cold and ingest-replicated"},
	{name: "mup.search_ms", unit: "ms", better: "lower", target: "mups_p50_ms on audit-cold and ingest-replicated"},
	{name: "mup.coverage_probes", unit: "count", better: "lower", target: "mups_p50_ms on audit-cold and ingest-replicated"},
	{name: "mup.probes_per_mup", unit: "ratio", better: "lower", target: "mups_p50_ms on audit-cold and ingest-replicated"},
	{name: "persist.append_ms", unit: "ms", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "persist.delete_ms", unit: "ms", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "persist.records_per_fsync", unit: "ratio", better: "higher", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "persist.wal_bytes_per_row", unit: "B", better: "lower", target: "e2e.mutate_p50_ms on ingest-replicated"},
	{name: "persist.snapshot_ms", unit: "ms", better: "lower", target: "e2e.mutate_tail_ms on ingest-replicated"},
	{name: "persist.snapshot_bytes", unit: "B", better: "lower", target: "e2e.mutate_tail_ms on ingest-replicated"},
	{name: "persist.delta_snapshots", unit: "count", better: "higher", target: "e2e.mutate_tail_ms on ingest-replicated"},
	{name: "persist.wal_since_us", unit: "us", better: "lower", target: "e2e.replica_lag_p50_ms on ingest-replicated"},
	{name: "persist.decode_wal_us", unit: "us", better: "lower", target: "e2e.replica_lag_p50_ms on ingest-replicated"},
	{name: "replica.apply_ms", unit: "ms", better: "lower", target: "e2e.replica_lag_p50_ms on ingest-replicated"},
	{name: "replica.polls", unit: "count", better: "lower", target: "e2e.replica_lag_p50_ms on ingest-replicated"},
	{name: "replica.resyncs", unit: "count", better: "lower", target: "e2e.replica_lag_p50_ms on ingest-replicated"},
	{name: "dataset.load_s", unit: "s", better: "lower", target: "setup_s on all workloads"},
	{name: "engine.build_s", unit: "s", better: "lower", target: "setup_s on all workloads"},
	{name: "loadgen.late_ms", unit: "ms", better: "lower", target: "shows the generator, not the server, limited a run"},
	{name: "loadgen.cpu_s", unit: "s", better: "lower", target: "shows the generator, not the server, limited a run"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", target: "cost of spans in the replay (on vs off)"},
	// End-to-end figures that exist on one workload only. The
	// bounded end-to-end set must hold on every workload, so these ride
	// in the traced run without a bound.
	{name: "e2e.mutate_p50_ms", unit: "ms", better: "lower", target: "ingest-replicated"},
	{name: "e2e.mutate_tail_ms", unit: "ms", better: "lower", target: "ingest-replicated"},
	{name: "e2e.replica_lag_p50_ms", unit: "ms", better: "lower", target: "ingest-replicated"},
	{name: "e2e.replica_lag_tail_ms", unit: "ms", better: "lower", target: "ingest-replicated"},
	{name: "e2e.max_rate_rps", unit: "1/s", better: "higher", target: "probe-read"},
	{name: "e2e.error_rate", unit: "ratio", better: "lower", target: "all workloads"},
}
