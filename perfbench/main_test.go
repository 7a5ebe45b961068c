package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	s := make(sample, 999)
	if _, ok := s.at(99); ok {
		t.Error("p99 of 999 samples leaves 9 beyond it, want refused")
	}
	s = append(s, 0)
	if _, ok := s.at(99); !ok {
		t.Error("p99 of 1000 samples leaves 10 beyond it, want supported")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantile(xs, 50); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

// TestOpenLoopLatencyFromDue checks that a stalled operation delays the
// ones queued behind it and that their latency counts that wait: it runs
// from the due time, not from when a client picked the operation up.
func TestOpenLoopLatencyFromDue(t *testing.T) {
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	start := time.Now()
	results := openLoop(ops, 1, start, func(i int, _ *opResult) {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
	})
	for i, r := range results {
		due := start.Add(ops[i].due)
		if r.started.Before(due) {
			t.Errorf("op %d started %v before its due time", i, due.Sub(r.started))
		}
		if i > 0 && r.started.Before(results[i-1].done) {
			t.Errorf("op %d started before op %d, on the only client, was done", i, i-1)
		}
		if lat := r.done.Sub(due); i > 0 && lat < 60*time.Millisecond-ops[i].due {
			t.Errorf("op %d latency %v does not include the wait behind op 0", i, lat)
		}
	}
	// With a free client, an operation starts on time.
	results = openLoop(ops, 3, time.Now(), func(int, *opResult) {})
	for i, r := range results {
		if late := r.started.Sub(results[0].started) - ops[i].due; late > 40*time.Millisecond {
			t.Errorf("op %d started %v late with clients free", i, late)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestValidateNames(t *testing.T) {
	if err := validateNames(endToEnd, reportOnly, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "a/b", "_lead", "x!", strings.Repeat("a", 65)} {
		if validateNames([]metricDef{{name: bad}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if validateNames([]metricDef{{name: "a"}}, []metricDef{{name: "a"}}) == nil {
		t.Error("duplicate name accepted")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the command has %q", i, w.Name, workloads[i])
		}
		if w.Name == "serve-mix" && !strings.Contains(w.Why, fmt.Sprintf("%d ops/s", offeredRate)) {
			t.Errorf("serve-mix description %q does not state the offered rate %d ops/s", w.Why, offeredRate)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d is %s [%s], the command prints %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d is %s [%s], the command prints %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestRunLengthSupportsP99 checks that at the benchmark's run length
// serve-mix gathers enough reads for read_p99_ms.
func TestRunLengthSupportsP99(t *testing.T) {
	s, err := workloadSettings("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	reads := int(s.rate*float64(readBenchmarkJSON(t).RunSeconds)) * (20 - mixBlock[opWrite]) / 20
	if p, ok := tailPercentile(reads); !ok || p < 99 {
		t.Errorf("%d reads do not support p99", reads)
	}
}

// TestStageSpansCheckedAgainstEngine checks that stage spans must hold the
// wall time the engine measured for each stage.
func TestStageSpansCheckedAgainstEngine(t *testing.T) {
	t0 := time.Now()
	marks := []stageMark{{"square-1", t0.Add(time.Millisecond)}, {"local-squaring", t0.Add(3 * time.Millisecond)}}
	t1 := t0.Add(4 * time.Millisecond)
	stats := []engine.StageStat{{Name: "square-1", WallNs: 2e6}, {Name: "local-squaring", WallNs: 1e6}}
	sq, lsq, err := stageSpans(newTracer(), 0, 1, marks, stats, t0, t1)
	if err != nil || sq != 0.002 || lsq != 0.001 {
		t.Errorf("consistent spans: square %v, local-squaring %v, err %v", sq, lsq, err)
	}
	long := []engine.StageStat{stats[0], {Name: "local-squaring", WallNs: 2e6}}
	if _, _, err := stageSpans(newTracer(), 0, 1, marks, long, t0, t1); err == nil {
		t.Error("a span shorter than the engine's stage time accepted")
	}
	if _, _, err := stageSpans(newTracer(), 0, 1, marks[:1], stats, t0, t1); err == nil {
		t.Error("a missing stage mark accepted")
	}
	if _, _, err := stageSpans(newTracer(), 0, 1, marks, stats, t0.Add(2*time.Millisecond), t1); err == nil {
		t.Error("a stage starting before the solve accepted")
	}
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	g := graph.NewDigraph(3)
	for _, a := range [][3]int64{{0, 1, 2}, {1, 2, -1}, {0, 2, 5}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := graph.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPath(g, ref, 0, 2, 1, []int{0, 1, 2}, nil); err != nil {
		t.Errorf("correct path rejected: %v", err)
	}
	for _, bad := range []struct {
		dist int64
		path []int
	}{{5, []int{0, 2}}, {1, []int{0, 2}}, {1, []int{0, 2, 1, 2}}, {1, []int{1, 2}}} {
		if checkPath(g, ref, 0, 2, bad.dist, bad.path, nil) == nil {
			t.Errorf("wrong answer %d via %v accepted", bad.dist, bad.path)
		}
	}
	pair := op{kind: opPair, src: 0, dst: 2}
	if err := checkRead(pair, opResult{status: [2]int{200}, bodies: [2][]byte{[]byte(`{"dist":1}`)}}, g, ref); err != nil {
		t.Errorf("correct read rejected: %v", err)
	}
	if checkRead(pair, opResult{status: [2]int{200}, bodies: [2][]byte{[]byte(`{"dist":2}`)}}, g, ref) == nil {
		t.Error("wrong distance accepted")
	}
	if checkRead(pair, opResult{status: [2]int{503}, bodies: [2][]byte{[]byte(`{"dist":1}`)}}, g, ref) == nil {
		t.Error("non-2xx read accepted")
	}
	sj, err := json.Marshal(serve.SolveJSON{Rounds: 5, Stages: []engine.StageStat{{Rounds: 2}, {Rounds: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkWrite(opResult{bodies: [2][]byte{nil, sj}}); err == nil {
		t.Error("stage rounds not summing to the total accepted")
	}
	res, err := core.Solve(g, core.Config{Strategy: core.StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(res, ref); err != nil {
		t.Errorf("correct solve rejected: %v", err)
	}
	res.Dist.Set(0, 2, 5)
	if checkSolve(res, ref) == nil {
		t.Error("wrong distance matrix accepted")
	}
}

func tinySettings(t *testing.T, name string) *settings {
	t.Helper()
	s, err := workloadSettings(name)
	if err != nil {
		t.Fatal(err)
	}
	s.seed, s.seconds, s.trace, s.setupReps = 7, 200*time.Millisecond, true, 2
	s.probe = probeSizes{productN: 6, promiseN: 24, multisearchM: 8000, minplusN: 32, exchangeN: 16, reps: 1}
	switch name {
	case "quantum-apsp":
		s.n, s.graphs = 8, 2
	case "gossip-kernel":
		s.n, s.graphs = 16, 2
	case "serve-mix":
		s.n, s.graphs, s.rate = 8, 2, 200
	}
	return s
}

// TestWorkloadsSmoke runs every workload, traced, at a tiny size.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			s := tinySettings(t, name)
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			o, err := run(s, spans)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.failures)
			}
			for _, d := range endToEnd {
				if v := o.e2e[d.name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
				}
			}
			for _, trace := range []bool{false, true} {
				r, err := result(o, trace)
				if err != nil {
					t.Fatal(err)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer)
				}
				if !r.Correct || len(r.Metrics) != want {
					t.Errorf("trace=%v: correct=%v with %d metrics, want %d", trace, r.Correct, len(r.Metrics), want)
				}
			}
			if o.layer["trace.overhead_ratio"] <= 0 || o.layer["par.speedup"] <= 0 || o.layer["matrix.minplus_s"] <= 0 {
				t.Errorf("layer metrics missing: %v", o.layer)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file not written: %v", err)
			}
		})
	}
}
