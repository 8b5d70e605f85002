package main

import "regexp"

// The names below are the benchmark's vocabulary: BENCHMARK.json declares
// exactly these (TestNamesMatchBenchmarkJSON pins the two together) and later
// issues quote only them. README.md has the table of what each one means.

// Workload names, in suite order.
var workloadNames = []string{"sweep_batch", "serve_mixed", "cluster_hot", "cluster_mixed"}

// metricSpec declares one printed metric.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd are the gated metrics. The driver requires every workload to print
// every one of them and none may be 0, so the set is the part of the issue's
// thirteen that has a meaning on all four workloads; the rest are printed
// under their issue names in perLayer (README.md, "Deviations").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"heavy_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the informational metrics of the traced run. A layer that does
// no work on a workload prints 0 there.
var perLayer = []metricSpec{
	// End-to-end numbers that exist on some workloads only.
	{"sweep_users_per_s", "users/s", "higher", 0},
	{"online_user_us", "us", "lower", 0},
	{"throughput_rps", "1/s", "higher", 0},
	{"batch_p50_ms", "ms", "lower", 0},
	{"ingest_p50_ms", "ms", "lower", 0},
	{"ingest_p95_ms", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"error_rate", "ratio", "lower", 0},
	{"read_p50_raw_ms", "ms", "lower", 0},
	{"read_p99_ms", "ms", "lower", 0},
	{"read_max_ms", "ms", "lower", 0},
	{"ingest_max_ms", "ms", "lower", 0},

	{"linalg.dot32x8_ns", "ns", "lower", 0},

	{"mf.score_user_us", "us", "lower", 0},
	{"mf.train_s", "s", "lower", 0},
	{"longtail.estimate_s", "s", "lower", 0},
	{"synth.universe_s", "s", "lower", 0},

	{"core.sweep_self_us", "us", "lower", 0},
	{"core.recommend_all_busy_s", "s", "lower", 0},
	{"core.allocs_per_user_online", "count", "lower", 0},
	{"core.allocs_per_user_batch", "count", "lower", 0},
	{"core.compute_ms_per_miss", "ms", "lower", 0},
	{"core.computes", "count", "lower", 0},

	{"serve.recommend_handler_us", "us", "lower", 0},
	{"serve.batch_handler_us", "us", "lower", 0},
	{"serve.ingest_handler_ms", "ms", "lower", 0},
	{"serve.http_overhead_us", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.swaps", "count", "lower", 0},
	{"serve.update_us", "us", "lower", 0},
	{"serve.resp_bytes_per_req", "B", "lower", 0},

	{"ingest.wal_append_ms", "ms", "lower", 0},
	{"ingest.apply_ms", "ms", "lower", 0},
	{"ingest.rebuild_swap_ms", "ms", "lower", 0},
	{"ingest.checkpoint_ms", "ms", "lower", 0},
	{"ingest.checkpoint_mb", "MB", "lower", 0},
	{"ingest.checkpoints", "count", "higher", 0},
	{"ingest.wal_bytes_per_event", "B", "lower", 0},
	{"ingest.events_acked", "count", "higher", 0},
	{"ingest.recover_replayed_events", "count", "lower", 0},

	{"persist.save_s", "s", "lower", 0},
	{"persist.snapshot_mb", "MB", "lower", 0},
	{"persist.load_s", "s", "lower", 0},

	{"cluster.boot_s", "s", "lower", 0},
	{"cluster.router_handler_us", "us", "lower", 0},
	{"cluster.router_hop_us", "us", "lower", 0},
	{"cluster.direct_shard_us", "us", "lower", 0},
	{"cluster.routed_minus_direct_us", "us", "lower", 0},
	{"cluster.fanout_per_batch", "count", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.shard_failures", "count", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"cluster.ingest_router_ms", "ms", "lower", 0},
	{"cluster.ingest_shard_ms", "ms", "lower", 0},
	{"cluster.quorum_fanout_ms", "ms", "lower", 0},
	{"cluster.replica_lag_end", "count", "lower", 0},
	{"cluster.replica_sync_s", "s", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.alloc_kb_per_op", "kB", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.cpu_user_s", "s", "lower", 0},
	{"runtime.cpu_sys_s", "s", "lower", 0},

	{"bench.box_speed", "ratio", "higher", 0},
	{"bench.stolen_ratio", "ratio", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.http_floor_us", "us", "lower", 0},
	{"bench.unattributed_us", "us", "lower", 0},
	{"bench.requests", "count", "higher", 0},
	{"bench.window_s", "s", "higher", 0},
}

// metricNameRE is the driver's rule for a metric name (at most 64 characters).
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// specsFor returns the metric set a run with the given trace flag prints.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}
