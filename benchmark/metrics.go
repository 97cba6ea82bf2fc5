package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (and, for the end-to-end ones, the
// regression bounds); TestSpecMatchesRegistry keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are what a user of the pipeline sees, measured with
// tracing off. Every workload reports every one of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"committed_txn_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p95_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayerMetrics come from the traced pass and the layers' own public
// counters. A metric that does not apply to a workload reads 0 there.
var perLayerMetrics = []metricDef{
	// Whole run, workload specific (not end-to-end because they are 0
	// on the workloads they do not apply to).
	{"failed_txn_ratio", "ratio", "lower"},
	{"log_bytes_per_op", "B", "lower"},
	{"recovery_ms", "ms", "lower"},

	// exec, tick engine.
	{"exec.rounds", "count", "higher"},
	{"exec.granted_ops", "count", "higher"},
	{"exec.self_share_pct", "%", "lower"},
	{"exec.self_ns_per_op", "ns", "lower"},
	{"exec.aborts_per_txn", "ratio", "lower"},
	{"exec.wasted_op_ratio", "ratio", "lower"},
	{"exec.wait_ticks_per_txn", "ticks", "lower"},
	{"exec.turnaround_ticks_p50", "ticks", "lower"},
	{"exec.round_p99_ms", "ms", "lower"},
	{"exec.round_p999_ms", "ms", "lower"},
	{"exec.alloc_bytes_per_op", "B", "lower"},
	{"exec.allocs_per_op", "count", "lower"},
	{"exec.gc_cycles", "count", "lower"},
	// exec, batch engine and versioned store.
	{"exec.batch_self_ns_per_txn", "ns", "lower"},
	{"exec.retries_per_txn", "ratio", "lower"},
	{"exec.validation_fail_ratio", "ratio", "lower"},
	{"exec.ro_txn_share", "ratio", "higher"},
	{"exec.ro_ops", "count", "higher"},
	{"exec.vstore_versions_end", "count", "lower"},
	{"exec.vstore_pruned", "count", "higher"},
	{"exec.vstore_floor_lag", "count", "lower"},

	{"sched.self_share_pct", "%", "lower"},
	{"sched.pick_calls", "count", "lower"},
	{"sched.pick_self_ns", "ns", "lower"},
	{"sched.picks_per_op", "ratio", "lower"},
	{"sched.pending_per_pick", "count", "lower"},
	{"sched.victim_calls", "count", "lower"},
	{"sched.victim_self_ns", "ns", "lower"},
	{"sched.txn_finished_self_ns", "ns", "lower"},
	{"sched.txn_aborted_self_ns", "ns", "lower"},
	{"sched.admit_txn_calls", "count", "higher"},
	{"sched.admit_txn_self_ns", "ns", "lower"},
	{"sched.admit_txn_share_pct", "%", "lower"},
	{"sched.denied_admit_ratio", "ratio", "lower"},

	{"core.self_share_pct", "%", "lower"},
	{"core.admissible_calls", "count", "lower"},
	{"core.admissible_ns", "ns", "lower"},
	{"core.probes_per_op", "ratio", "lower"},
	{"core.probe_hit_ratio", "ratio", "higher"},
	{"core.probe_invalidations", "count", "lower"},
	{"core.admissible_denied_ratio", "ratio", "lower"},
	{"core.observe_calls", "count", "lower"},
	{"core.observe_ns", "ns", "lower"},
	{"core.retract_calls", "count", "lower"},
	{"core.retract_ns", "ns", "lower"},
	{"core.commit_ns", "ns", "lower"},
	{"core.compact_passes", "count", "higher"},
	{"core.reclaimed_txns", "count", "higher"},
	{"core.live_txns_end", "count", "lower"},
	{"core.admit_sequence_calls", "count", "higher"},
	{"core.admit_sequence_ns", "ns", "lower"},
	{"core.check_ns_per_op", "ns", "lower"},

	{"wal.self_share_pct", "%", "lower"},
	{"wal.records", "count", "lower"},
	{"wal.records_per_op", "ratio", "lower"},
	{"wal.append_self_ns", "ns", "lower"},
	{"wal.barrier_calls", "count", "lower"},
	{"wal.barrier_ns", "ns", "lower"},
	{"wal.log_compact_ns", "ns", "lower"},
	{"wal.snapshots", "count", "higher"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.retries", "count", "lower"},
	{"wal.recovery_replayed_events", "count", "lower"},
	{"wal.recover_ns_per_event", "ns", "lower"},
	{"wal.durability_lag_records", "count", "lower"},
	{"wal.backend_writes", "count", "lower"},
	{"wal.backend_write_bytes_mean", "B", "higher"},
	{"wal.backend_syncs", "count", "lower"},
	{"wal.backend_sync_ns", "ns", "lower"},
	{"wal.backend_sync_p99_us", "us", "lower"},
	{"wal.records_per_sync", "ratio", "higher"},

	{"program.templates", "count", "lower"},
	{"program.parse_ns_per_template", "ns", "lower"},
	{"program.isolation_ns_per_op", "ns", "lower"},
	{"constraint.ic_eval_ns", "ns", "lower"},

	{"benchmark.trace_overhead_pct", "%", "lower"},
	{"benchmark.traced_rounds", "count", "higher"},
	{"benchmark.spans", "count", "lower"},
	{"benchmark.verify_s", "s", "lower"},
	{"benchmark.heap_setup_mb", "MB", "lower"},
}

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which
// is what the acceptance driver computes spreads from. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
