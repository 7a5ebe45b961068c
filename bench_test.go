package qclique

// Benchmarks for the internal/experiments suite (E1–E12, one per
// quantitative claim of the paper — it has no empirical tables, so these
// measure the counterpart of each theorem, proposition and lemma).
// BenchmarkSuite runs the gated entries that cmd/bench holds to
// BENCH_1.json, under the same names and on the same inputs; every other
// benchmark builds its input from the same workload catalog. Each reports
// the simulated round count (or the claim's own count) via ReportMetric
// beside the wall-clock numbers; cmd/experiments renders the paper-claim
// versus measured tables.

import (
	"errors"
	"fmt"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/experiments"
	"qclique/internal/matrix"
	"qclique/internal/quantum"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// BenchmarkSuite runs every entry of experiments.Suite (the quick subset
// under -short) as a sub-benchmark named like its cmd/bench report entry.
// rounds/op is the count at seed 0, the seed cmd/bench pins, so it reads
// the same as the committed baseline.
func BenchmarkSuite(b *testing.B) {
	suite, err := experiments.Suite(testing.Short())
	if err != nil {
		b.Fatal(err)
	}
	for _, entry := range suite {
		b.Run(entry.Name, func(b *testing.B) {
			b.ReportAllocs()
			var rounds int64
			for i := 0; i < b.N; i++ {
				out, err := entry.Run(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					rounds = out.Rounds
				}
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}

// BenchmarkE4Strategies regenerates E4: the strategy separation on one
// fixed FindEdgesWithPromise workload.
func BenchmarkE4Strategies(b *testing.B) {
	params := triangles.BenchParams()
	g, err := experiments.TriangleGraph(81, 81)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("quantum", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
				Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("classical-scan", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
				Seed: uint64(i), Params: &params, Data: triangles.DataDirect, Mode: triangles.SearchClassicalScan,
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("dolev", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.DolevFindEdges(triangles.Instance{G: g}, nil)
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
}

// BenchmarkE5FindEdgesReduction regenerates E5 (Proposition 1): the
// sampling reduction on a hub workload.
func BenchmarkE5FindEdgesReduction(b *testing.B) {
	params := triangles.BenchParams()
	g, err := experiments.HubGraph(96, 5)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int64
	var calls int
	for i := 0; i < b.N; i++ {
		rep, err := triangles.FindEdges(triangles.Instance{G: g}, triangles.Options{
			Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = rep.Rounds
		calls = rep.PromiseCalls
	}
	b.ReportMetric(float64(rounds), "rounds/op")
	b.ReportMetric(float64(calls), "promise-calls/op")
}

// BenchmarkE6DistanceProduct regenerates E6 (Proposition 2): distance
// product via binary search over FindEdges, per weight magnitude.
func BenchmarkE6DistanceProduct(b *testing.B) {
	rng := xrand.New(6)
	for _, m := range []int64{8, 128} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			x := experiments.FiniteMatrix(6, m, rng.SplitN("a", int(m)))
			y := experiments.FiniteMatrix(6, m, rng.SplitN("b", int(m)))
			var steps int
			for i := 0; i < b.N; i++ {
				_, stats, err := distprod.Product(x, y, distprod.Options{Solver: distprod.SolverDolev, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				steps = stats.BinarySearchSteps
			}
			b.ReportMetric(float64(steps), "findedges-calls/op")
		})
	}
}

// BenchmarkE7Squaring regenerates E7 (Proposition 3): repeated min-plus
// squaring.
func BenchmarkE7Squaring(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := experiments.APSPDigraph(n, 8, uint64(n))
			if err != nil {
				b.Fatal(err)
			}
			ag := matrix.FromDigraph(g)
			var products int
			for i := 0; i < b.N; i++ {
				_, stats, err := matrix.APSPBySquaring(ag, matrix.DistanceProduct)
				if err != nil {
					b.Fatal(err)
				}
				products = stats.Products
			}
			b.ReportMetric(float64(products), "products/op")
		})
	}
}

// BenchmarkE8Router regenerates E8 (Lemma 1): König-colored two-round
// relay schedules.
func BenchmarkE8Router(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			msgs := experiments.RelayMessages(n, 1, xrand.New(uint64(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batches, err := congest.BuildRelaySchedule(n, msgs)
				if err != nil {
					b.Fatal(err)
				}
				if err := congest.VerifyRelaySchedule(n, batches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Covering regenerates E9 (Lemma 2): covering construction and
// balance verification.
func BenchmarkE9Covering(b *testing.B) {
	params := triangles.PaperParams()
	for i := 0; i < b.N; i++ {
		st, err := triangles.CoveringTrial(256, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if st.Aborted {
			b.Fatal("unexpected abort")
		}
	}
}

// BenchmarkE10IdentifyClass regenerates E10 (Proposition 5).
func BenchmarkE10IdentifyClass(b *testing.B) {
	params := triangles.PaperParams()
	g, err := experiments.SignedGraph(81, 10)
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	for i := 0; i < b.N; i++ {
		acc, err := triangles.IdentifyClassTrial(g, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !acc.Aborted {
			frac = float64(acc.Satisfied) / float64(acc.Triples)
		}
	}
	b.ReportMetric(frac, "prop5-satisfied")
}

// BenchmarkE11Congestion regenerates E11: naive versus balanced query
// injection.
func BenchmarkE11Congestion(b *testing.B) {
	params := triangles.BenchParams()
	g, err := experiments.TriangleGraph(81, 81)
	if err != nil {
		b.Fatal(err)
	}
	var naive, balanced int64
	for i := 0; i < b.N; i++ {
		st, err := triangles.CongestionTrial(g, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		naive, balanced = st.NaiveMaxLinkLoad, st.BalancedMaxLinkLoad
	}
	b.ReportMetric(float64(naive), "naive-load")
	b.ReportMetric(float64(balanced), "balanced-load")
}

// BenchmarkE12Grover regenerates E12: the √|X| oracle-call core.
func BenchmarkE12Grover(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("X=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			var calls int64
			for i := 0; i < b.N; i++ {
				target := rng.IntN(n)
				res := quantum.Search(n, func(x int) bool { return x == target }, rng.SplitN("i", i))
				if !res.Found {
					b.Fatal("search failed")
				}
				calls = res.OracleCalls()
			}
			b.ReportMetric(float64(calls), "oracle-calls/op")
		})
	}
}

// BenchmarkPublicAPISolve exercises the public façade end to end.
func BenchmarkPublicAPISolve(b *testing.B) {
	inner, err := experiments.APSPDigraph(12, 8, 12)
	if err != nil {
		b.Fatal(err)
	}
	g := toPublicDigraph(b, inner)
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := SolveAPSP(g, WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds/op")
}

// BenchmarkSolverAmortizedQueries demonstrates the serving layer's
// amortization: answering 100 mixed ShortestPath/SSSP queries through a
// Solver (one pipeline run, batched projection against the cached result)
// versus paying a full SolveAPSP per query. The acceptance bar for the
// service layer is ≥10x between these two.
func BenchmarkSolverAmortizedQueries(b *testing.B) {
	const n = 8
	const numQueries = 100
	inner, err := experiments.APSPDigraph(n, 8, n)
	if err != nil {
		b.Fatal(err)
	}
	g := toPublicDigraph(b, inner)
	opts := []Option{WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(1)}
	var queries []PathQuery
	for i := 0; i < numQueries; i++ {
		queries = append(queries, PathQuery{Src: i % n, Dst: (i*3 + 1) % n})
	}

	b.Run("independent", func(b *testing.B) {
		// The pre-service cost model: every query pays the full pipeline.
		for i := 0; i < b.N; i++ {
			for q := 0; q < numQueries; q++ {
				res, err := SolveAPSP(g, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ShortestPath(g, res, queries[q].Src, queries[q].Dst); err != nil && !errors.Is(err, ErrNoPath) {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("solver-batched", func(b *testing.B) {
		// One pipeline run per op (fresh solver), then the whole query
		// batch is projection against the cached result.
		for i := 0; i < b.N; i++ {
			s := NewSolver(opts...)
			answers, _, err := s.PathsBatch(g, queries)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range answers {
				if a.Err != nil && !errors.Is(a.Err, ErrNoPath) {
					b.Fatal(a.Err)
				}
			}
		}
	})
}

// BenchmarkSolverCachedResolve measures a cache-hit re-solve of an
// unchanged graph: content hash plus LRU lookup, zero simulator rounds.
func BenchmarkSolverCachedResolve(b *testing.B) {
	const n = 16
	inner, err := experiments.APSPDigraph(n, 8, n)
	if err != nil {
		b.Fatal(err)
	}
	g := toPublicDigraph(b, inner)
	s := NewSolver(WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(1))
	if _, err := s.Solve(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(g)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("re-solve missed the cache")
		}
	}
}

// --- Ablations: measure the design choices in isolation.

// BenchmarkAblationRouting compares Lemma-1 balanced delivery against
// direct per-link sending on the ComputePairs Step-1-like load pattern
// (every node sources ~k·n words spread unevenly): the router is what
// keeps the placement at O(n^{1/4}) rounds.
func BenchmarkAblationRouting(b *testing.B) {
	const n = 64
	rng := xrand.New(1)
	var loads []congest.Load
	for s := 0; s < n; s++ {
		// Skewed destinations: half the traffic concentrates on a few
		// nodes, as block-aligned gathers do.
		for i := 0; i < 4*n; i++ {
			d := rng.IntN(n / 8)
			if rng.Bool(0.5) {
				d = rng.IntN(n)
			}
			if d == s {
				continue
			}
			loads = append(loads, congest.Load{Src: congest.NodeID(s), Dst: congest.NodeID(d), Words: 1})
		}
	}
	b.Run("direct", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			nw, err := congest.NewNetwork(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := nw.ChargeDirect("ablation", loads); err != nil {
				b.Fatal(err)
			}
			rounds = nw.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("lemma1-balanced", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			nw, err := congest.NewNetwork(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := nw.ChargeBalanced("ablation", loads); err != nil {
				b.Fatal(err)
			}
			rounds = nw.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
}

// BenchmarkAblationConstants compares the paper's verbatim protocol
// constants against the scaled preset on the same FindEdgesWithPromise
// workload: same asymptotics, ~3× the message volume.
func BenchmarkAblationConstants(b *testing.B) {
	g, err := experiments.TriangleGraph(81, 81)
	if err != nil {
		b.Fatal(err)
	}
	presets := map[string]triangles.Params{
		"paper":  triangles.PaperParams(),
		"scaled": triangles.BenchParams(),
	}
	for name := range presets {
		params := presets[name]
		b.Run(name, func(b *testing.B) {
			var rounds, words int64
			for i := 0; i < b.N; i++ {
				rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
					Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds = rep.Rounds
				words = rep.Metrics.Words
			}
			b.ReportMetric(float64(rounds), "rounds/op")
			b.ReportMetric(float64(words), "words/op")
		})
	}
}

// BenchmarkAblationDataMode compares payload-carrying placement (DataFull)
// against charge-only accounting (DataDirect): identical rounds by
// construction, different wall-clock and memory.
func BenchmarkAblationDataMode(b *testing.B) {
	g, err := experiments.TriangleGraph(81, 81)
	if err != nil {
		b.Fatal(err)
	}
	params := triangles.BenchParams()
	for _, mode := range []struct {
		name string
		m    triangles.DataMode
	}{{"full", triangles.DataFull}, {"direct", triangles.DataDirect}} {
		b.Run(mode.name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
					Seed: uint64(i), Params: &params, Data: mode.m,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds = rep.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}
