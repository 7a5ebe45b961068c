package qclique

import (
	"errors"
	"sort"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// toPublicDigraph copies an internal graph through the public Digraph
// constructor.
func toPublicDigraph(tb testing.TB, inner *graph.Digraph) *Digraph {
	tb.Helper()
	n := inner.N()
	d := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w, ok := inner.Weight(u, v); ok {
				if err := d.SetArc(u, v, w); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return d
}

func buildRandomDigraph(t *testing.T, n int, seed uint64) *Digraph {
	t.Helper()
	rng := xrand.New(seed)
	inner, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -5, MaxWeight: 12, NoNegativeCycles: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return toPublicDigraph(t, inner)
}

func referenceDistances(t *testing.T, d *Digraph) [][]int64 {
	t.Helper()
	n := d.N()
	inner := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w, ok := d.Weight(u, v); ok {
				if err := inner.SetArc(u, v, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flat, err := graph.FloydWarshall(inner)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}

func TestSolveAPSPAllStrategies(t *testing.T) {
	d := buildRandomDigraph(t, 16, 11)
	want := referenceDistances(t, d)
	for _, s := range []Strategy{Quantum, ClassicalSearch, DolevListing, Gossip} {
		res, err := SolveAPSP(d, WithStrategy(s), WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Strategy != s {
			t.Errorf("strategy echo = %v", res.Strategy)
		}
		for i := range want {
			for j := range want[i] {
				if res.Dist[i][j] != want[i][j] {
					t.Fatalf("%v: d(%d,%d) = %d, want %d", s, i, j, res.Dist[i][j], want[i][j])
				}
			}
		}
		if res.Rounds <= 0 {
			t.Errorf("%v: rounds = %d", s, res.Rounds)
		}
	}
}

func TestSolveAPSPNegativeCycle(t *testing.T) {
	d := NewDigraph(4)
	for _, a := range [][3]int64{{0, 1, 1}, {1, 2, -4}, {2, 0, 1}} {
		if err := d.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := SolveAPSP(d, WithStrategy(Gossip)); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("err = %v, want ErrNegativeCycle", err)
	}
}

func TestSolveAPSPNil(t *testing.T) {
	if _, err := SolveAPSP(nil); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestSolveAPSPUnreachable(t *testing.T) {
	d := NewDigraph(3)
	if err := d.SetArc(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	res, err := SolveAPSP(d, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][2] != Inf || res.Dist[1][0] != Inf {
		t.Error("unreachable pairs must be Inf")
	}
	if res.Dist[0][1] != 5 || res.Dist[0][0] != 0 {
		t.Error("reachable distances wrong")
	}
}

func TestFindNegativeTriangleEdges(t *testing.T) {
	g := NewGraph(16)
	set := func(u, v int, w int64) {
		t.Helper()
		if err := g.SetEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 1, -7)
	set(0, 2, 2)
	set(1, 2, 2) // negative triangle {0,1,2}
	set(3, 4, 5)
	set(3, 5, 5)
	set(4, 5, 5) // positive triangle
	want := []Edge{{0, 1}, {0, 2}, {1, 2}}
	for _, s := range []Strategy{Quantum, ClassicalSearch, DolevListing} {
		rep, err := FindNegativeTriangleEdges(g, WithStrategy(s), WithSeed(5))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := append([]Edge(nil), rep.Edges...)
		sort.Slice(got, func(i, j int) bool {
			if got[i].U != got[j].U {
				return got[i].U < got[j].U
			}
			return got[i].V < got[j].V
		})
		if len(got) != len(want) {
			t.Fatalf("%v: edges = %v, want %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: edges = %v, want %v", s, got, want)
			}
		}
		if rep.Rounds <= 0 {
			t.Errorf("%v: rounds = %d", s, rep.Rounds)
		}
	}
	if _, err := FindNegativeTriangleEdges(nil); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestDistanceProductPublic(t *testing.T) {
	a := [][]int64{
		{0, 2, Inf},
		{Inf, 0, -1},
		{4, Inf, 0},
	}
	b := a
	for _, s := range []Strategy{Gossip, DolevListing, ClassicalSearch, Quantum} {
		res, err := DistanceProduct(a, b, WithStrategy(s), WithSeed(2))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.C[0][2] != 1 {
			t.Errorf("%v: C[0][2] = %d, want 1", s, res.C[0][2])
		}
		if res.C[2][1] != 6 {
			t.Errorf("%v: C[2][1] = %d, want 6", s, res.C[2][1])
		}
	}
	if _, err := DistanceProduct([][]int64{{0, 1}}, a); err == nil {
		t.Error("ragged matrix must fail")
	}
}

// TestDistanceProductRejectsUnsupportedOptions pins that DistanceProduct
// refuses what it cannot honour instead of silently running the quantum
// product: strategies without a FindEdges solver (other than Gossip) and
// any epsilon.
func TestDistanceProductRejectsUnsupportedOptions(t *testing.T) {
	a := [][]int64{
		{0, 2, Inf},
		{Inf, 0, -1},
		{4, Inf, 0},
	}
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"approx-skeleton", []Option{WithStrategy(ApproxSkeleton), WithEpsilon(0.5)}},
		{"approx-quantum", []Option{WithStrategy(ApproxQuantum), WithEpsilon(0.5)}},
		{"auto", []Option{WithStrategy(StrategyAuto)}},
		{"quantum+epsilon", []Option{WithStrategy(Quantum), WithEpsilon(0.7)}},
		{"gossip+epsilon", []Option{WithStrategy(Gossip), WithEpsilon(0.5)}},
		{"unknown selector", []Option{WithStrategy(Strategy(42))}},
	} {
		if res, err := DistanceProduct(a, a, c.opts...); err == nil {
			t.Errorf("%s: accepted (rounds %d)", c.name, res.Rounds)
		}
	}
}

func TestScaledConstantsPreset(t *testing.T) {
	d := buildRandomDigraph(t, 16, 21)
	want := referenceDistances(t, d)
	res, err := SolveAPSP(d, WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if res.Dist[i][j] != want[i][j] {
				t.Fatalf("d(%d,%d) = %d, want %d", i, j, res.Dist[i][j], want[i][j])
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Quantum:         "quantum",
		ClassicalSearch: "classical-search",
		DolevListing:    "dolev-listing",
		Gossip:          "gossip",
		ApproxQuantum:   "approx-quantum",
		ApproxSkeleton:  "approx-skeleton",
		StrategyAuto:    "auto",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
		// Every selector round-trips through the name it prints.
		if back, err := ParseStrategy(s.String()); err != nil || back != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), back, err, s)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy should still render")
	}
	if _, err := SolveAPSP(NewDigraph(2), WithStrategy(Strategy(42))); err == nil {
		t.Error("unknown strategy selector must be rejected, not run as quantum")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	d := buildRandomDigraph(t, 16, 33)
	a, err := SolveAPSP(d, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveAPSP(d, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Errorf("same seed, different rounds: %d vs %d", a.Rounds, b.Rounds)
	}
}
