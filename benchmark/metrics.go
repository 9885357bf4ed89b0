package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark reports. Later issues cite these
// names verbatim, and BENCHMARK.json lists exactly them (smoke_test.go
// checks the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: the share of a's median by which b may be worse before -compare says so
	Gate   float64 // end-to-end only: BENCHMARK.json's bound, the driver's gate
}

// failRatio is reported with the end-to-end metrics but is not listed in
// BENCHMARK.json: its value is 0 on every passing run, and the driver's
// contract carries it as failed/attempted in the result line instead.
const failRatio = "fail_ratio"

// endToEnd lists the metrics a user of the substrate would see, per workload.
//
// Bound is the issue's regression bound. -compare judges run sets with it and
// answers "unresolved" where a side's own spread is wider.
//
// Gate is what BENCHMARK.json carries. The driver compares single runs, keeps
// one bound per metric for all seven workloads, and wants the run-to-run
// spread (interquartile distance over median, ten seeds) of every workload
// under a third of it, so the gate is three times the metric's widest spread
// on the 2-core box the benchmark was written on, and at most the 25 % the
// driver admits. README.md has the spread of every (metric, workload) pair.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.10, 0.25},
	{"op_p50_us", "us", "lower", 0.10, 0.25},
	{"op_tail_us", "us", "lower", 0.10, 0.25},
	{"cpu_us_per_op", "us", "lower", 0.10, 0.25},
	{"alloc_b_per_op", "B/op", "lower", 0.05, 0.15},
	{"setup_s", "s", "lower", 0.10, 0.25},
}

// demoted lists the issue's end-to-end metrics that did not repeat within
// their bound (README.md has the measured spreads). They are still measured
// with tracing off, printed by the full run and shown by -compare, whose
// verdict on them is "demoted" and gates nothing; BENCHMARK.json carries them
// with the per-layer metrics, as driver.<name>, without a bound.
var demoted = []metricDef{
	{"peak_rss_mb", "MiB", "lower", 0.10, 0},
}

// demotedPairs lists the single (metric, workload) pairs that did not repeat
// within the issue's bound while the metric's other workloads did (README.md
// has the spreads). -compare shows them as "demoted" too. The driver's gate
// is per metric and still covers them.
var demotedPairs = map[[2]string]bool{
	{"op_tail_us", "tuple_backlog"}: true, // 7.7, 11.8, 2.6 % over ten seeds
}

// fullRunEndToEnd is what a full run prints and -compare judges: the
// end-to-end metrics, the demoted ones, and fail_ratio.
func fullRunEndToEnd() []metricDef {
	out := append(append([]metricDef{}, endToEnd...), demoted...)
	return append(out, metricDef{Name: failRatio, Unit: "ratio", Better: "lower"})
}

// layerDef is a metricDef without bounds.
type layerDef struct{ Name, Unit, Better string }

// perLayer lists the metrics of single layers: spans around calls into a
// layer, the layer's exported counters, and micro-probes that call one layer
// alone. A metric reads 0 on a workload whose path does not cross the layer.
var perLayer = []layerDef{
	// core (+policy): fork/join machinery — forkjoin.
	{"core.thread_us", "us", "lower"},
	{"core.fork_ns", "ns", "lower"},
	{"core.join_wait_us", "us", "lower"},
	{"core.dispatches_per_op", "count", "lower"},
	{"core.migrations_per_op", "count", "lower"},
	{"core.steal_batches_per_op", "count", "lower"},
	{"core.failed_steals_per_op", "count", "lower"},
	{"core.steals_per_op", "count", "higher"},
	{"core.idles_per_op", "count", "lower"},
	{"core.tcb_hit_ratio", "ratio", "higher"},
	{"core.preemptions_per_op", "count", "lower"},
	// core: yield and park/wake — tuple_handoff, remote_rtt.
	{"core.yield_ns", "ns", "lower"},
	{"core.block_resume_us", "us", "lower"},
	{"core.blocks_per_op", "count", "lower"},
	{"core.cross_vp_handoff_us", "us", "lower"},
	// core: what the tidying hides — the workloads that tidy, as deployed.
	{"core.retained_b_per_op", "B", "lower"},
	{"core.untidied_ops_per_s", "op/s", "higher"},
	{"core.untidied_cpu_us_per_op", "us", "lower"},
	// tspace: matching at the workload's resident depth.
	{"tspace.put_ns", "ns", "lower"},
	{"tspace.get_hit_ns", "ns", "lower"},
	{"tspace.rd_hit_ns", "ns", "lower"},
	{"tspace.try_miss_ns", "ns", "lower"},
	{"tspace.depth_p50", "count", "lower"},
	{"tspace.depth_max", "count", "lower"},
	{"tspace.task_us", "us", "lower"},
	// tspace: wait table.
	{"tspace.wakes_per_op", "count", "lower"},
	{"tspace.wake_miss_ratio", "ratio", "lower"},
	{"tspace.handoffs_per_op", "count", "higher"},
	{"tspace.waiters_max", "count", "lower"},
	// tspace codec on the wire workloads' tuples.
	{"tspace.codec_encode_ns", "ns", "lower"},
	{"tspace.codec_decode_ns", "ns", "lower"},
	{"tspace.codec_allocs_per_op", "count", "lower"},
	{"tspace.codec_bytes_per_tuple", "B", "lower"},
	// sio: the syscall floor.
	{"sio.frame_rt_us", "us", "lower"},
	{"sio.frame_bytes", "B", "lower"},
	// remote: request/response path — remote_rtt.
	{"remote.client_put_us", "us", "lower"},
	{"remote.client_get_us", "us", "lower"},
	{"remote.req_path_us", "us", "lower"},
	{"remote.resp_path_us", "us", "lower"},
	{"remote.echo_put_us", "us", "lower"},
	{"remote.server_op_p50_us", "us", "lower"},
	{"remote.server_op_p99_us", "us", "lower"},
	{"remote.bytes_in_per_op", "B", "lower"},
	{"remote.bytes_out_per_op", "B", "lower"},
	{"remote.retries", "count", "lower"},
	{"remote.timeouts", "count", "lower"},
	{"remote.proto_errors", "count", "lower"},
	{"remote.residual_us", "us", "lower"},
	// remote: streaming path — remote_stream.
	{"remote.put_us", "us", "lower"},
	{"remote.batch_size_p50", "count", "higher"},
	{"remote.pipeline_depth_p50", "count", "higher"},
	{"remote.batches_per_window", "count", "lower"},
	// cluster: routing and fan-out — cluster_farm.
	{"cluster.keyed_put_us", "us", "lower"},
	{"cluster.keyed_get_us", "us", "lower"},
	{"cluster.fanout_get_us", "us", "lower"},
	{"cluster.route_overhead_us", "us", "lower"},
	{"cluster.task_us", "us", "lower"},
	{"cluster.fanouts_per_task", "count", "lower"},
	{"cluster.cancels_per_task", "count", "lower"},
	{"cluster.redeposits", "count", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.shard_skew", "ratio", "lower"},
	// scheme reader and vm compile/dispatch — scheme_compute, cluster_farm.
	{"scheme.prelude_load_ms", "ms", "lower"},
	{"scheme.read_us_per_kb", "us/KiB", "lower"},
	{"vm.compile_us_per_form", "us", "lower"},
	{"vm.compiled_forms", "count", "higher"},
	{"vm.fallback_forms", "count", "lower"},
	{"vm.dispatch_ops_per_s", "1/s", "higher"},
	{"vm.tree_ratio", "ratio", "higher"},
	// the load generator itself.
	{"driver.slice_cv", "ratio", "lower"},
	{"driver.trace_overhead_pct", "%", "lower"},
	{"driver.gc_cycles", "count", "lower"},
	{"driver.gc_pause_ms", "ms", "lower"},
	{"driver.leaked_goroutines", "count", "lower"},
}

// allPerLayer is what a traced run reports: the layer metrics plus the
// demoted end-to-end ones under driver.<name>.
func allPerLayer() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		out = append(out, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	for _, d := range demoted {
		out = append(out, metricDef{Name: "driver." + d.Name, Unit: d.Unit, Better: d.Better})
	}
	return out
}

// median returns the middle of vs (mean of the two middles when even); 0
// for an empty slice. vs is not modified.
func median(vs []float64) float64 { return percentile(vs, 0.5) }

// percentile returns the p-quantile of vs by linear interpolation between
// closest ranks.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), so a
// spread printed here is the spread the acceptance procedure sees. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped into the data before the
		// interpolation weight is taken, as Python does
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// cv is the coefficient of variation (population standard deviation over
// mean).
func cv(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vs {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss/float64(len(vs))) / mean
}
