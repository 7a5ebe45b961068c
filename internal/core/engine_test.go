package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"qclique/internal/distprod"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// engineTestStrategies is every registered pipeline with a config that
// satisfies its input contract on the given graph class.
func engineTestStrategies() []Config {
	params := triangles.BenchParams()
	return []Config{
		{Strategy: StrategyQuantum, Params: &params},
		{Strategy: StrategyClassicalSearch, Params: &params},
		{Strategy: StrategyDolev, Params: &params},
		{Strategy: StrategyGossip},
		{Strategy: StrategyApproxQuantum, Params: &params, Epsilon: 0.5},
		{Strategy: StrategyApproxSkeleton, Epsilon: 0.5},
	}
}

// testGraphFor returns a graph in the strategy's input class.
func testGraphFor(t *testing.T, s Strategy, n int) *graph.Digraph {
	t.Helper()
	rng := xrand.New(uint64(n) * 7)
	var g *graph.Digraph
	var err error
	switch s {
	case StrategyApproxSkeleton:
		g, err = graph.RandomSymmetricDigraph(n, graph.DigraphOpts{
			ArcProb: 0.3, MinWeight: 1, MaxWeight: 9,
		}, rng)
	case StrategyApproxQuantum:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: 0, MaxWeight: 8,
		}, rng)
	default:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: -4, MaxWeight: 8, NoNegativeCycles: true,
		}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStageRoundsSumToTotal is the acceptance invariant of the engine
// refactor: for every strategy and n ∈ {8, 16, 32}, the per-stage rounds
// in Result sum exactly to Result.Rounds.
func TestStageRoundsSumToTotal(t *testing.T) {
	for _, cfg := range engineTestStrategies() {
		for _, n := range []int{8, 16, 32} {
			g := testGraphFor(t, cfg.Strategy, n)
			res, err := Solve(g, cfg)
			if err != nil {
				t.Fatalf("%v n=%d: %v", cfg.Strategy, n, err)
			}
			if len(res.Stages) == 0 {
				t.Fatalf("%v n=%d: no stage telemetry", cfg.Strategy, n)
			}
			if sum := engine.SumRounds(res.Stages); sum != res.Rounds {
				t.Errorf("%v n=%d: stage rounds sum %d != total %d (stages %+v)",
					cfg.Strategy, n, sum, res.Rounds, res.Stages)
			}
		}
	}
}

// TestSolveContextAlreadyCancelledReturnsPromptly pins the public
// cancellation contract at the core layer: an already-cancelled context
// must return context.Canceled well under 100ms at n=64, without running
// the pipeline.
func TestSolveContextAlreadyCancelledReturnsPromptly(t *testing.T) {
	g := testGraphFor(t, StrategyQuantum, 64)
	params := triangles.BenchParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := SolveContext(ctx, g, Config{Strategy: StrategyQuantum, Params: &params})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled solve took %v, want < 100ms", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled solve should carry (empty) partial telemetry")
	}
	if res.Dist != nil {
		t.Fatal("cancelled solve must not produce distances")
	}
	if res.Rounds != 0 {
		t.Fatalf("already-cancelled solve charged %d rounds", res.Rounds)
	}
}

// TestCancelAtEveryStageBoundaryLeavesWorkspaceReusable is the pooled-
// workspace regression: cancel a solve at each stage boundary in turn,
// then re-solve on the same workspace and demand results bit-identical to
// a fresh-workspace solve.
func TestCancelAtEveryStageBoundaryLeavesWorkspaceReusable(t *testing.T) {
	for _, cfg := range engineTestStrategies() {
		n := 16
		g := testGraphFor(t, cfg.Strategy, n)

		want, err := Solve(g, cfg)
		if err != nil {
			t.Fatalf("%v: reference solve: %v", cfg.Strategy, err)
		}
		stageCount := len(want.Stages)
		if stageCount == 0 {
			t.Fatalf("%v: no stages to cancel at", cfg.Strategy)
		}

		ws := NewWorkspace()
		for k := 0; k < stageCount; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancelCfg := cfg
			cancelCfg.Workspace = ws
			cancelCfg.StageHook = func(i int, name string) {
				if i == k {
					cancel()
				}
			}
			res, err := SolveContext(ctx, g, cancelCfg)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: cancel at stage %d: err = %v, want context.Canceled", cfg.Strategy, k, err)
			}
			if len(res.Stages) != k {
				t.Fatalf("%v: cancel at stage boundary %d recorded %d stages", cfg.Strategy, k, len(res.Stages))
			}

			// Re-solve on the same (possibly partially warmed) workspace:
			// rounds and distances must match the fresh solve exactly.
			retryCfg := cfg
			retryCfg.Workspace = ws
			got, err := Solve(g, retryCfg)
			if err != nil {
				t.Fatalf("%v: re-solve after cancel at %d: %v", cfg.Strategy, k, err)
			}
			if got.Rounds != want.Rounds {
				t.Errorf("%v: re-solve after cancel at %d: rounds %d != %d", cfg.Strategy, k, got.Rounds, want.Rounds)
			}
			if !got.Dist.Equal(want.Dist) {
				t.Errorf("%v: re-solve after cancel at %d: distances differ from a fresh solve", cfg.Strategy, k)
			}
		}
	}
}

// TestSolveContextDeadlineInsideStage exercises the in-stage checkpoints
// (binary-search steps, triangle enumeration): a deadline that expires
// mid-pipeline must stop the solve with DeadlineExceeded and partial
// telemetry, and the same workspace must then reproduce a fresh solve.
func TestSolveContextDeadlineInsideStage(t *testing.T) {
	params := triangles.BenchParams()
	g := testGraphFor(t, StrategyQuantum, 32)
	ws := NewWorkspace()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, g, Config{Strategy: StrategyQuantum, Params: &params, Workspace: ws})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded (n=32 cannot finish in 5ms)", err)
	}
	if res == nil {
		t.Fatal("deadline-expired solve should carry partial telemetry")
	}

	want, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &params, Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !got.Dist.Equal(want.Dist) {
		t.Fatal("workspace reused after a mid-stage deadline produced a different result")
	}
}

// TestStrategyRegistryCoversEveryEnum pins the strategy names against the
// registry: every production name resolves to a pipeline registered under
// exactly that canonical name with the right approximate flag, and
// AllStrategies lists exactly the registered set, in its fixed order
// (reports key per-strategy metrics by that order).
func TestStrategyRegistryCoversEveryEnum(t *testing.T) {
	want := []Strategy{"quantum", "classical-search", "dolev", "gossip", "approx-quantum", "approx-skeleton"}
	if got := AllStrategies(); !slices.Equal(got, want) {
		t.Fatalf("AllStrategies() = %v, want %v", got, want)
	}
	for _, s := range AllStrategies() {
		st, ok := s.Pipeline()
		if !ok {
			t.Errorf("strategy %q has no registered pipeline", s)
			continue
		}
		if st.Name() != string(s) {
			t.Errorf("strategy %q resolves to pipeline %q", s, st.Name())
		}
		isApprox := s == StrategyApproxQuantum || s == StrategyApproxSkeleton
		if st.Approximate() != isApprox || s.IsApproximate() != isApprox {
			t.Errorf("strategy %q approximate flag mismatch", s)
		}
	}
	names := make([]string, 0, len(want))
	for _, s := range AllStrategies() {
		names = append(names, string(s))
	}
	slices.Sort(names)
	if reg := engine.Names(); !slices.Equal(reg, names) {
		t.Errorf("registry names %v, AllStrategies %v", reg, names)
	}
	if _, ok := StrategyAuto.Pipeline(); ok {
		t.Error("the auto sentinel must not be a registered pipeline")
	}
}

// TestFindEdgesSolverFollowsPipeline pins which strategies carry a
// FindEdges solver: the three search pipelines, each with its own solver,
// and nothing else.
func TestFindEdgesSolverFollowsPipeline(t *testing.T) {
	want := map[Strategy]distprod.Solver{
		StrategyQuantum:         distprod.SolverQuantum,
		StrategyClassicalSearch: distprod.SolverClassicalScan,
		StrategyDolev:           distprod.SolverDolev,
	}
	for _, s := range append(AllStrategies(), StrategyAuto, "no-such-strategy") {
		got, ok := FindEdgesSolver(s)
		w, role := want[s]
		if ok != role || got != w {
			t.Errorf("FindEdgesSolver(%q) = %v, %v; want %v, %v", s, got, ok, w, role)
		}
	}
}

// TestGuaranteeComesFromRegistry pins the stretch contract surfaced per
// strategy.
func TestGuaranteeComesFromRegistry(t *testing.T) {
	cases := []struct {
		s    Strategy
		eps  float64
		want float64
	}{
		{StrategyQuantum, 0, 1},
		{StrategyGossip, 0, 1},
		{StrategyApproxQuantum, 0.5, 1.5},
		{StrategyApproxSkeleton, 0.25, 2.25},
	}
	for _, c := range cases {
		st, ok := c.s.Pipeline()
		if !ok {
			t.Fatalf("%v unregistered", c.s)
		}
		if got := st.Guarantee(c.eps); got != c.want {
			t.Errorf("%v.Guarantee(%v) = %v, want %v", c.s, c.eps, got, c.want)
		}
	}
}
