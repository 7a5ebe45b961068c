package experiments

import (
	"testing"

	"qclique/internal/engine"
)

func TestWorkloadConstructors(t *testing.T) {
	if _, err := APSPDigraph(8, 8, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := TriangleGraph(16, 16); err != nil {
		t.Fatal(err)
	}
}

func TestE4WorkloadConstructors(t *testing.T) {
	g, err := NonnegDigraph(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.HasNegativeArc() {
		t.Error("E4 workload must be nonnegative")
	}
	gs, err := SymmetricDigraph(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.IsSymmetric() || gs.HasNegativeArc() {
		t.Error("E4 skeleton workload must be symmetric and nonnegative")
	}
}

func TestE1SizesQuickSubset(t *testing.T) {
	full := e1Sizes(false)
	quick := e1Sizes(true)
	if len(quick) >= len(full) {
		t.Fatalf("quick mode must drop configurations: quick=%v full=%v", quick, full)
	}
	if full[len(full)-1] < 32 {
		t.Fatalf("full mode must include the n>=32 scaling cases, got %v", full)
	}
}

func TestSweepWorkersLadder(t *testing.T) {
	ws := sweepWorkers()
	if len(ws) < 3 || ws[0] != 1 || ws[1] != 2 || ws[2] != 4 {
		t.Fatalf("sweepWorkers() = %v, want the fixed 1/2/4 prefix", ws)
	}
	seen := map[int]bool{}
	for _, w := range ws {
		if seen[w] {
			t.Fatalf("sweepWorkers() = %v contains duplicate rung %d", ws, w)
		}
		seen[w] = true
	}
}

// TestRoundsDeterministic pins the gate's core premise: the same
// configuration at the same seed yields the same simulated round count.
func TestRoundsDeterministic(t *testing.T) {
	suite, err := Suite(true)
	if err != nil {
		t.Fatal(err)
	}
	b := suite[0]
	x, err := b.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := b.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rounds != y.Rounds || x.Stretch != y.Stretch {
		t.Fatalf("%s: (rounds, stretch) = (%d, %v) then (%d, %v) at the same seed",
			b.Name, x.Rounds, x.Stretch, y.Rounds, y.Stretch)
	}
}

// TestStageSumGate pins the invariant behind cmd/bench's -stages column:
// for every APSP workload, the engine's per-stage rounds sum exactly to
// the round total — cmd/bench enforces it on every run.
func TestStageSumGate(t *testing.T) {
	suite, err := Suite(true)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range suite {
		out, err := b.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Stages) == 0 {
			continue
		}
		checked++
		if sum := engine.SumRounds(out.Stages); sum != out.Rounds {
			t.Errorf("%s: stage rounds sum %d != total %d", b.Name, sum, out.Rounds)
		}
	}
	if checked == 0 {
		t.Fatal("no workload reported stage telemetry; the stage-sum gate is vacuous")
	}
}
