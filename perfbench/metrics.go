package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median an end-to-end metric may worsen by;
// moves names, for a per-layer metric, the end-to-end metric and
// workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// e2eDefs are the end-to-end metrics every workload reports with
// tracing off. The timing bounds are the largest allowed: on a shared
// 2-core machine the closed loops spread by about 0.15 between runs of
// identical inputs. Tail percentiles are printed where at least ten
// samples lie beyond them, but are not bounded: on the open loop a
// single stall moves p99 several-fold.
var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// layerDefs are the per-layer metrics of the traced run. A layer a
// workload never reaches reports 0 with n=0.
var layerDefs = []metricDef{
	{name: "service.hit_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on ingest-query; flat on decompose-enumerate"},
	{name: "service.miss_wait_p99_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "service.upload_p50_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query; setup_s on count-dist"},
	{name: "service.hit_ratio", unit: "ratio", better: "higher", moves: "p50_ms and error_rate on ingest-query"},
	{name: "service.busy", unit: "count", better: "lower", moves: "p50_ms and error_rate on ingest-query"},
	{name: "service.compute_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on decompose-enumerate"},
	{name: "dist.push_mb", unit: "MB", better: "lower", moves: "p50_ms and error_rate on count-dist"},
	{name: "dist.rpcs", unit: "count", better: "lower", moves: "p50_ms and error_rate on count-dist"},
	{name: "dist.retries", unit: "count", better: "lower", moves: "p50_ms and error_rate on count-dist"},
	{name: "graph.parse_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query; setup_s on count-dist"},
	{name: "graph.parse_mb_s", unit: "MB/s", better: "higher", moves: "p99_ms on ingest-query; setup_s on count-dist"},
	{name: "graph.fingerprint_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query; setup_s on count-dist"},
	{name: "graph.unsorted_share", unit: "ratio", better: "lower", moves: "p99_ms on ingest-query; setup_s on count-dist"},
	{name: "triangle.rank_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "triangle.count2d_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "triangle.plan_ms", unit: "ms", better: "lower", moves: "p50_ms on count-dist"},
	{name: "triangle.encode_ms", unit: "ms", better: "lower", moves: "p50_ms on count-dist"},
	{name: "triangle.decode_ms", unit: "ms", better: "lower", moves: "p50_ms on count-dist"},
	{name: "triangle.triple_ms", unit: "ms", better: "lower", moves: "p50_ms on count-dist"},
	{name: "triangle.triples", unit: "count", better: "lower", moves: "p50_ms on count-dist"},
	{name: "core.cs19_ms", unit: "ms", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.det_ms", unit: "ms", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.par-cmps_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "core.auto_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "core.evaluate_ms", unit: "ms", better: "lower", moves: "p99_ms on ingest-query"},
	{name: "core.cut_ms", unit: "ms", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.cut_calls", unit: "count", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.ldd_ms", unit: "ms", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.ldd_calls", unit: "count", better: "lower", moves: "p50_ms and throughput_rps on decompose-enumerate"},
	{name: "core.self_ms", unit: "ms", better: "lower", moves: "p50_ms on decompose-enumerate"},
	{name: "core.min_phi", unit: "ratio", better: "higher", moves: "reported beside cut_fraction on decompose-enumerate"},
	{name: "triangle.enumerate_ms", unit: "ms", better: "lower", moves: "p50_ms on decompose-enumerate"},
	{name: "triangle.enumerate_self_ms", unit: "ms", better: "lower", moves: "p50_ms on decompose-enumerate"},
	{name: "congest.msgs_per_s", unit: "1/s", better: "higher", moves: "p50_ms and congest_rounds on decompose-enumerate"},
	{name: "congest.rounds_exponent", unit: "slope", better: "lower", moves: "p50_ms and congest_rounds on decompose-enumerate"},
	{name: "par.speedup", unit: "ratio", better: "higher", moves: "p50_ms on decompose-enumerate"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", moves: "validity of ingest-query"},
	{name: "cut_fraction", unit: "ratio", better: "lower", moves: "decomposition quality on ingest-query and decompose-enumerate"},
	{name: "congest_rounds", unit: "count", better: "lower", moves: "the paper's round cost on decompose-enumerate"},
	{name: "congest_messages", unit: "count", better: "lower", moves: "the paper's message cost on decompose-enumerate"},
}

// percentile returns the nearest-rank p-th percentile of sorted xs and
// how many samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := max(1, int(math.Ceil(p/100*float64(len(sorted)))))
	return sorted[rank-1], len(sorted) - rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median of durations in ms (0 for none).
func medianMS(ds []time.Duration) float64 {
	v, _ := percentile(sortedMS(ds), 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
