// Command perfbench is the repository's benchmark. It drives the layers
// through their public entry points — core.Solve for the library, and
// serve.NewHandler, called in-process, for the service — checks
// every answer against graph.FloydWarshall, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload quantum-apsp --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command from the checkout and runs it; BENCHMARK.json
// at the repository root declares the workloads, metrics and bounds.
//
// # Workloads
//
// All graphs use the E1 generator options (arc probability 0.4, weights
// −8..8, no negative cycles), drawn from --seed. The run uses at most nproc
// worker threads and client goroutines.
//
//   - quantum-apsp: closed loop, one caller, solving eight n=64 digraphs in
//     rotation with strategy quantum, BenchParams and one warm
//     core.Workspace. It runs whole passes over the eight, at least one and
//     until --seconds have passed, so every graph weighs the same in the
//     medians. This is the paper's pipeline: nearly all the time goes
//     to the promise pipeline (triangles), qsearch/quantum, distprod and
//     congest. A change to the promise pipeline must show here.
//   - gossip-kernel: the same loop over eight n=512 digraphs with strategy
//     gossip. Over 99% of the time is the local-squaring stage, the min-plus
//     kernel on the par pool. It bypasses triangles and qsearch, so a
//     promise-pipeline change should read "no change" here and a kernel
//     change should move only this workload.
//   - serve-mix: open loop at a fixed offered rate (offeredRate; its writes,
//     about 6 ms each, keep a client busy an eighth of the time) against one
//     serve.Service configured as apspd configures it (MaxInflight = nproc,
//     strategy auto) through serve.NewHandler(svc). nproc clients take the
//     operations in order, each starting one at its due time or, when all
//     were busy, late; a client hands its request to the handler in its
//     own goroutine and records the response, with no socket. 80%
//     of operations are cached reads of eight pre-solved n=64 graphs (dist
//     pair 40%, dist row 20%, full dist 5%, paths:batch of 32 queries 15%);
//     20% are writes, PUT /v1/graphs of a fresh n=64 graph followed by POST
//     …/solve {}. This is what apspd users feel. Under today's planner every
//     write resolves to gossip, so a planner change shows as a shift between
//     the serve.planner.chosen.* counts and in write_p50_ms.
//
// serve-mix leaves loopback TCP out because on a shared host it measured the
// host more than the service. Over loopback, a cached read crossed several
// goroutines, each hand-off waiting for an idle CPU to wake: read_p50_ms was
// 0.38 to 0.48 ms in six runs of the same code and seed, three quarters of
// it outside the handler, and its spread across ten seeds
// (interquartile range over median) was 0.30. In-process, five seeds spread
// 0.06 around 0.19 ms (at 200 ops/s). The traced run still measures what
// loopback HTTP adds (serve.http_overhead_ms).
//
// The offered rate is low so that few reads overlap a write. A read that
// waits behind a write, or shares the CPUs with its solve, takes many times
// its service time, so the share of reads that do sets where the median
// falls. At 200 ops/s writes kept a client busy a quarter to a third of the
// time; when other guests slowed the host, writes grew longer, more reads
// overlapped them, and read_p50_ms rose by up to 70% while the reads' own
// service time barely moved. In alternating runs on a busy host, read_p50_ms
// was 0.22 to 0.28 ms at 200 ops/s and 0.20 to 0.22 ms at 100 ops/s. 100
// ops/s over the run still leaves enough reads for read_p99_ms.
//
// The library loop collects garbage before each solve and before each
// solve's reads, outside the timed spans. A timed operation therefore pays
// for the collections its own allocations trigger, but not for garbage
// left by the operation before it, as it would in a long-running caller.
// An n=64 quantum solve allocates more than its heap allowance, so extra
// garbage in Solve still costs it collections on its own clock; the debt
// carried between operations shows only in serve-mix, which never forces a
// collection. The forced collections keep the library figures steady: on
// a shared two-CPU host, dropping them raised the spread across seeds
// (interquartile range over median) of solve_s_p50 from 0.09 to 0.14, of
// read_p50_ms from 0.05 to 0.12 and of peak_rss_mb from 0.08 to 0.13.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports every end-to-end metric. A write hands a new graph
// to the system and gets it solved; a read answers queries from a solved
// result.
//
//   - setup_s: median of three set-ups, five on gossip-kernel and fifteen on
//     serve-mix (workspace or service, worker pool, a warm-up solve, and for
//     serve-mix uploading and pre-solving the read graphs). Input
//     generation and reference distances are excluded.
//   - solve_s_p50: median wall time of core.Solve; on serve-mix, of the
//     POST …/solve of a write.
//   - rounds, words: simulated CONGEST-CLIQUE rounds and words, summed over
//     one pass of the graph set (library) or over all writes (serve-mix).
//     Exact for a given seed.
//   - read_p50_ms: read latency. On serve-mix a read is one cached request
//     through the handler, timed from when it was due. On the library
//     workloads a read is one batch of 32 shortest-path queries with
//     uniform sources and destinations, answered by a fresh
//     core.PathOracle over the solved result, the projection serve's
//     paths:batch runs, as for the first batch after a solve. Each solve is followed by four reads, the reads
//     per write of serve-mix's mix.
//   - write_p50_ms: on serve-mix, PUT plus solve timed from when it was due;
//     on the library workloads, core.Solve.
//   - achieved_rps: completed operations over the wall time to drain; on
//     serve-mix, compare it with the offered rate.
//   - peak_rss_mb: peak resident memory of the process.
//
// The report lines before the JSON line add fail_ratio and the p99 read and
// write latencies where at least ten samples lie beyond them (otherwise the
// highest percentile that has), sample counts, the host fingerprint (CPU
// model, nproc, GOMAXPROCS, Go version, calibration-loop ns) and the share
// of CPU time other guests of the host stole during the run. The p99s stay
// out of the JSON line because their run-to-run spread is wider than any
// bound BENCHMARK.json may set.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first repeats the untraced run, then runs again recording
// spans at each layer boundary from the benchmark's own files (nothing is
// added inside the program), then times each layer's public functions on
// its own. Layer → end-to-end metric it should move:
//
//   - engine.stage_s.square → solve_s_p50@quantum-apsp;
//     engine.stage_s.local-squaring → solve_s_p50@gossip-kernel (stage spans
//     from core.Config.StageHook boundaries, checked to fit in the solve
//     span; on serve-mix, the stage wall times the solve responses carry);
//     engine.retries → fail_ratio.
//   - distprod.product_s (one ProductInto on an n=64 A_G),
//     distprod.binary_search_steps, triangles.find_edges_promise_s and
//     triangles.covering_trial_s (3n=192 vertices), qsearch.multisearch_s
//     (E3 tables, m=8000), congest.exchange_us.local/sharded (one all-to-all
//     ExchangeDirect at 192 nodes) → solve_s_p50@quantum-apsp; they should
//     not move gossip-kernel.
//   - matrix.minplus_s (one MulMinPlusInto at n=512), matrix.minplus_gops
//     and matrix.minplus_bytes (computed from n³ and 3·n²·8) →
//     solve_s_p50@gossip-kernel; they should not move quantum-apsp.
//   - par.for_dispatch_us (empty-body par.For), par.speedup (one solve at
//     one worker over nproc workers) → solve_s_p50 on both library
//     workloads.
//   - congest.phases, congest.deliveries, congest.messages → rounds, words.
//   - serve.cache_hit_ratio, serve.handler_ms.read → read_p50_ms;
//     serve.handler_ms.put/solve, serve.solves, serve.planner.chosen.* →
//     write_p50_ms; serve.queue_wait_ms → write_p99_ms; serve.shed →
//     fail_ratio. Counts are /v1/metrics deltas; handler times come from a
//     timing wrapper around the handler in this package.
//     serve.http_overhead_ms is the median of 400 dist pair reads sent with
//     http.Client to httptest.NewServer(handler), less the median of the
//     same reads in-process: what loopback HTTP would add to read_p50_ms.
//     It moves no gated metric.
//   - loadgen.late_p99_ms: how late operations started after their due
//     time, waiting for a timer or a free client; it guards the validity of
//     serve-mix. trace.overhead_ratio: the traced pass's
//     solve_s_p50 (serve-mix: read_p50_ms) over the untraced pass's.
//
// A layer the workload does not run reports 0. Spans go to
// .bench_build/spans-<workload>-<seed>.jsonl and the full report to
// .bench_build/report-<workload>-<seed>-<trace>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"qclique/internal/core"
)

// settings sizes one run. workloadSettings holds the benchmark's values;
// tests shrink them.
type settings struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	workers   int
	setupReps int

	// n and graphs size the graph set: the graphs a library workload solves,
	// or the graphs serve-mix reads.
	n, graphs int

	// Library workloads.
	strategy core.Strategy

	// serve-mix.
	rate float64 // offered operations per second

	probe probeSizes
}

// offeredRate is serve-mix's open-loop rate in operations per second; the
// workload's description in BENCHMARK.json states it.
const offeredRate = 100

var workloads = []string{"quantum-apsp", "gossip-kernel", "serve-mix"}

func workloadSettings(name string) (*settings, error) {
	s := &settings{
		workload:  name,
		workers:   runtime.NumCPU(),
		setupReps: 3,
		probe:     fullProbes,
	}
	switch name {
	case "quantum-apsp":
		s.strategy, s.n, s.graphs = core.StrategyQuantum, 64, 8
	case "gossip-kernel":
		// A fresh n=512 workspace's page faults make single set-ups vary, so
		// more repetitions steady the median.
		s.strategy, s.n, s.graphs, s.setupReps = core.StrategyGossip, 512, 8, 5
	case "serve-mix":
		// Its set-up takes tens of milliseconds, so more repetitions steady
		// the median.
		s.n, s.graphs, s.rate, s.setupReps = 64, 8, offeredRate, 15
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
	}
	return s, nil
}

// readsPerWrite is the number of reads per write in serve-mix's mix; the
// library workloads follow each solve with that many reads.
func readsPerWrite() int {
	reads := 0
	for k, c := range mixBlock {
		if opKind(k) != opWrite {
			reads += c
		}
	}
	return reads / mixBlock[opWrite]
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	e2e, extra, layer map[string]float64
	// primary is the end-to-end figure trace.overhead_ratio compares.
	primary  float64
	notes    []string
	failures []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, extra: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts err, if any, as a failed operation and reports whether it did.
func (o *outcome) fail(err error, what string) bool {
	if err == nil {
		return false
	}
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, what+": "+err.Error())
	}
	return true
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// tail records the p-th percentile of s under name when at least minBeyond
// samples lie beyond it, and otherwise notes the highest percentile that has.
func (o *outcome) tail(name string, s sample, p float64) {
	if v, ok := s.at(p); ok {
		o.extra[name] = v
		return
	}
	if best, ok := tailPercentile(len(s)); ok {
		o.notef("%s: %d samples leave fewer than %d beyond p%g; p%g = %.4f", name, len(s), minBeyond, p, best, quantile(s.sorted(), best))
	} else {
		o.notef("%s: %d samples support no tail percentile", name, len(s))
	}
}

// run executes one workload. A traced run then repeats it with spans
// recorded, times each layer on its own, and adds the per-layer metrics; the
// end-to-end metrics always come from the untraced pass.
func run(s *settings, spansPath string) (*outcome, error) {
	once := func(tr *tracer) (*outcome, error) {
		if s.workload == "serve-mix" {
			return runServeMix(s, tr)
		}
		return runLibrary(s, tr)
	}
	o, err := once(nil)
	if err != nil {
		return nil, err
	}
	if s.trace {
		tr := newTracer()
		t, err := once(tr)
		if err != nil {
			return nil, err
		}
		o.attempted += t.attempted
		o.failed += t.failed
		o.failures = append(o.failures, t.failures...)
		o.layer = t.layer
		o.layer["trace.overhead_ratio"] = t.primary / o.primary
		if err := probeLayers(s, o, tr); err != nil {
			return nil, err
		}
		var notes []string
		for name, self := range selfByName(tr.snapshot()) {
			notes = append(notes, fmt.Sprintf("self time %-34s n=%-6d p50 %.4f ms", name, len(self), self.median()))
		}
		sort.Strings(notes)
		o.notes = append(o.notes, notes...)
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		o.notef("spans written to %s", spansPath)
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return o, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result builds the final line: the end-to-end metrics, or with tracing
// the per-layer ones.
func result(o *outcome, trace bool) (resultJSON, error) {
	defs, values := endToEnd, o.e2e
	if trace {
		defs, values = perLayer, o.layer
	}
	r := resultJSON{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricJSON{v, d.unit}
	}
	return r, nil
}

// printReport writes the human-readable report: host, every metric with its
// unit (per-layer ones paired with what they should move), and the notes.
func printReport(w io.Writer, s *settings, h host, o *outcome) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", s.workload, s.seed, s.seconds.Seconds(), s.trace)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s calibration_ns=%d\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.CalibrationNs)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILURE %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, o.e2e[d.name], d.unit)
	}
	for _, d := range reportOnly {
		if v, ok := o.extra[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if s.trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s -> %s\n", d.name, o.layer[d.name], d.unit, d.moves)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// report is the document written beside the spans.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Extra     map[string]float64 `json:"report_only"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Moves     map[string]string  `json:"per_layer_moves,omitempty"`
	Notes     []string           `json:"notes"`
}

func writeReport(path string, s *settings, h host, o *outcome) error {
	r := report{Workload: s.workload, Seed: s.seed, Seconds: s.seconds.Seconds(), Trace: s.trace, Host: h,
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures, EndToEnd: o.e2e, Extra: o.extra, Notes: o.notes}
	if s.trace {
		r.Layer, r.Moves = o.layer, map[string]string{}
		for _, d := range perLayer {
			r.Moves[d.name] = d.moves
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the report and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	s, err := workloadSettings(*workload)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if err == nil {
		err = validateNames(endToEnd, reportOnly, perLayer)
	}
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	s.seed, s.seconds, s.trace = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1
	h := fingerprint()
	total0, steal0, ok0 := cpuTicks()
	o, err := run(s, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", s.workload, s.seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if total1, steal1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		o.notef("host CPU time stolen by other guests during the run: %.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	o.extra["fail_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	printReport(os.Stdout, s, h, o)
	if err := writeReport(filepath.Join(*out, fmt.Sprintf("report-%s-%d-%d.json", s.workload, s.seed, *trace)), s, h, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r, err := result(o, s.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}
