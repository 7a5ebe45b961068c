package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"

	"qclique/internal/core"
)

// metricDef is one reported metric. For a per-layer metric, moves names the
// end-to-end metric and workload the layer metric should move, written down
// before measuring so a later change can be checked against it.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics printed with --trace 0, on every workload. Their
// bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "solve_s_p50", unit: "s"},
	{name: "rounds", unit: "rounds"},
	{name: "words", unit: "words"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "achieved_rps", unit: "req/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// reportOnly are end-to-end figures the report prints but the final JSON
// line leaves out. fail_ratio is 0 on a correct run; attempted and failed
// carry it. The p99 latencies are too noisy to gate: on a shared two-CPU
// host their spread across seeds (interquartile range over median) was 0.15
// to 0.9, beyond the largest bound a gated metric may have.
var reportOnly = []metricDef{
	{name: "fail_ratio", unit: "ratio"},
	{name: "read_p99_ms", unit: "ms"},
	{name: "write_p99_ms", unit: "ms"},
}

const (
	onQuantum = "solve_s_p50@quantum-apsp"
	onGossip  = "solve_s_p50@gossip-kernel"
)

// perLayer are the metrics printed with --trace 1, on every workload. A layer
// the workload does not run reports 0.
var perLayer = append([]metricDef{
	{"engine.stage_s.square", "s", onQuantum},
	{"engine.stage_s.local-squaring", "s", onGossip},
	{"engine.retries", "count", "fail_ratio@all"},
	{"distprod.product_s", "s", onQuantum + ",rounds@quantum-apsp"},
	{"distprod.binary_search_steps", "count", onQuantum + ",rounds@quantum-apsp"},
	{"triangles.find_edges_promise_s", "s", onQuantum},
	{"triangles.covering_trial_s", "s", onQuantum},
	{"qsearch.multisearch_s", "s", onQuantum},
	{"matrix.minplus_s", "s", onGossip},
	{"matrix.minplus_gops", "Gop/s", onGossip},
	{"matrix.minplus_bytes", "bytes", onGossip},
	{"par.for_dispatch_us", "us", onQuantum + "," + onGossip},
	{"par.speedup", "ratio", onQuantum + "," + onGossip},
	{"congest.exchange_us.local", "us", onQuantum},
	{"congest.exchange_us.sharded", "us", onQuantum},
	{"congest.phases", "count", "rounds@quantum-apsp,words@quantum-apsp"},
	{"congest.deliveries", "count", "rounds@quantum-apsp,words@quantum-apsp"},
	{"congest.messages", "count", "rounds@quantum-apsp,words@quantum-apsp"},
	{"serve.cache_hit_ratio", "ratio", "read_p50_ms@serve-mix"},
	{"serve.handler_ms.read", "ms", "read_p50_ms@serve-mix"},
	{"serve.handler_ms.put", "ms", "write_p50_ms@serve-mix"},
	{"serve.handler_ms.solve", "ms", "write_p50_ms@serve-mix"},
	{"serve.http_overhead_ms", "ms", "none: what loopback HTTP adds to read_p50_ms@serve-mix"},
	{"serve.queue_wait_ms", "ms", "write_p99_ms@serve-mix"},
	{"serve.shed", "count", "fail_ratio@serve-mix"},
	{"serve.solves", "count", "write_p50_ms@serve-mix"},
	{"loadgen.late_p99_ms", "ms", "validity@serve-mix"},
	{"trace.overhead_ratio", "ratio", "validity@all"},
}, plannerMetrics()...)

// plannerMetrics has one serve.planner.chosen.<strategy> count per
// registered strategy, so a planner change shows as a shift between them.
func plannerMetrics() []metricDef {
	var defs []metricDef
	for _, s := range core.AllStrategies() {
		defs = append(defs, metricDef{"serve.planner.chosen." + s.String(), "count", "write_p50_ms@serve-mix"})
	}
	return defs
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateNames checks every metric name against the benchmark's naming
// rule and rejects duplicates.
func validateNames(sets ...[]metricDef) error {
	seen := map[string]bool{}
	for _, set := range sets {
		for _, d := range set {
			if !nameRE.MatchString(d.name) {
				return fmt.Errorf("metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.name)
			}
			if seen[d.name] {
				return fmt.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	return nil
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// tailLadder are the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// beyond is the number of samples above the p-th percentile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPercentile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the p-th percentile of xs by linear interpolation between
// closest ranks. xs must be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	h := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// sample is a set of timings in one unit.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

func (s sample) median() float64 { return quantile(s.sorted(), 50) }

// at returns the p-th percentile, or false when fewer than minBeyond
// samples lie beyond it.
func (s sample) at(p float64) (float64, bool) {
	if beyond(len(s), p) < minBeyond {
		return 0, false
	}
	return quantile(s.sorted(), p), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
