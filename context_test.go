package qclique_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"qclique"
)

func cancelDigraph(t *testing.T, n int) *qclique.Digraph {
	t.Helper()
	g := qclique.NewDigraph(n)
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 2, 5} {
			if err := g.SetArc(i, (i+off)%n, int64(1+(i+off)%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestSolveAPSPContextAlreadyCancelled pins the public cancellation
// contract: an already-cancelled context returns context.Canceled in
// well under 100ms at n=64.
func TestSolveAPSPContextAlreadyCancelled(t *testing.T) {
	g := cancelDigraph(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := qclique.SolveAPSPContext(ctx, g, qclique.WithParams(qclique.ScaledConstants))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled solve took %v, want < 100ms", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWithTimeoutStopsTheSolve pins the WithTimeout option end to end.
func TestWithTimeoutStopsTheSolve(t *testing.T) {
	g := cancelDigraph(t, 48)
	_, err := qclique.SolveAPSP(g,
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithTimeout(2*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolverSolveContextCancelThenResolve: a cancelled solve must leave
// the solver fully usable — the retry runs fresh (not cached) and is
// bit-identical to an independent solve.
func TestSolverSolveContextCancelThenResolve(t *testing.T) {
	g := cancelDigraph(t, 32)
	s := qclique.NewSolver(qclique.WithParams(qclique.ScaledConstants))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := s.SolveContext(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	got, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("retry after cancellation reported cached")
	}
	want, err := qclique.SolveAPSP(g, qclique.WithParams(qclique.ScaledConstants))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Fatal("solver retry after cancellation differs from an independent solve")
	}

	st := s.Stats().Strategies["quantum"]
	if st.Cancelled != 1 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want Cancelled=1 Solves=1", st)
	}
	if len(st.StageRounds) == 0 {
		t.Fatal("per-stage rounds missing from solver stats")
	}
	var sum int64
	for _, r := range st.StageRounds {
		sum += r
	}
	if sum != st.RoundsCharged {
		t.Fatalf("stage rounds roll up to %d, want %d", sum, st.RoundsCharged)
	}
}

// TestAPSPResultStagesSumToRounds pins the public stage telemetry.
func TestAPSPResultStagesSumToRounds(t *testing.T) {
	g := cancelDigraph(t, 16)
	res, err := qclique.SolveAPSP(g, qclique.WithParams(qclique.ScaledConstants))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage telemetry on the public result")
	}
	var sum int64
	for _, sg := range res.Stages {
		sum += sg.Rounds
	}
	if sum != res.Rounds {
		t.Fatalf("stage rounds sum %d != rounds %d", sum, res.Rounds)
	}
}

// TestStrategiesEnumeration pins the public registry surface.
func TestStrategiesEnumeration(t *testing.T) {
	infos := qclique.Strategies()
	if len(infos) < 6 {
		t.Fatalf("Strategies() = %d entries, want at least the 6 built-ins", len(infos))
	}
	byName := map[string]qclique.StrategyInfo{}
	for _, si := range infos {
		byName[si.Name] = si
	}
	if si, ok := byName["approx-skeleton"]; !ok || !si.Approximate || si.Guarantee(0.5) != 2.5 {
		t.Fatalf("approx-skeleton info wrong: %+v", si)
	}
	if si, ok := byName["quantum"]; !ok || si.Approximate || si.Guarantee(0) != 1 {
		t.Fatalf("quantum info wrong: %+v", si)
	}
	for alias, want := range map[string]qclique.Strategy{
		"quantum":          qclique.Quantum,
		"classical":        qclique.ClassicalSearch,
		"classical-search": qclique.ClassicalSearch,
		"dolev":            qclique.DolevListing,
		"dolev-listing":    qclique.DolevListing,
		"gossip":           qclique.Gossip,
		"approx-quantum":   qclique.ApproxQuantum,
		"skeleton":         qclique.ApproxSkeleton,
		"approx-skeleton":  qclique.ApproxSkeleton,
		"auto":             qclique.StrategyAuto,
		"":                 qclique.Quantum,
	} {
		got, err := qclique.ParseStrategy(alias)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", alias, err)
			continue
		}
		if got != want {
			t.Errorf("ParseStrategy(%q) = %v, want %v", alias, got, want)
		}
	}
	if _, err := qclique.ParseStrategy("warp-drive"); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Every registered pipeline's public selector round-trips through its
	// canonical name.
	for _, si := range infos {
		if got, err := qclique.ParseStrategy(si.Name); err != nil || got != si.Strategy {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", si.Name, got, err, si.Strategy)
		}
	}
}
