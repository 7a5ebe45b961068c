package experiments

import (
	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// This file is the workload catalog: the one place that decides which
// input each experiment runs on. The experiment tables (runE*), the gated
// Suite that cmd/bench and `go test -bench Suite` measure, the root
// package's benchmarks and examples/scalingstudy all build their inputs
// here, so a round count means the same graph wherever it is reported.

// APSPDigraph is the E1 workload: a dense digraph (arc probability 0.4)
// with weights in [-w, w] and no negative cycle. The gated E1 entries use
// w = 8 and seed = n.
func APSPDigraph(n int, w int64, seed uint64) (*graph.Digraph, error) {
	return graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -w, MaxWeight: w, NoNegativeCycles: true,
	}, xrand.New(seed))
}

// NonnegDigraph is the approximate-frontier workload: the E1 density with
// weights in [0, 8], the input class the approximate strategies accept,
// so exact and approximate pipelines run on the same graph.
func NonnegDigraph(n int, seed uint64) (*graph.Digraph, error) {
	return graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: 0, MaxWeight: 8,
	}, xrand.New(seed))
}

// SymmetricDigraph is the skeleton-strategy workload: sparse (arc
// probability 0.15), weight-symmetric, weights in [1, 20].
func SymmetricDigraph(n int, seed uint64) (*graph.Digraph, error) {
	return graph.RandomSymmetricDigraph(n, graph.DigraphOpts{
		ArcProb: 0.15, MinWeight: 1, MaxWeight: 20,
	}, xrand.New(seed))
}

// TriangleGraph is the negative-triangle workload of E2, E4 and E11: a
// sparse positive-weight graph (edge probability 0.15, weights in [1, 40])
// with 1+n/16 disjoint negative triangles planted.
func TriangleGraph(n int, seed uint64) (*graph.Undirected, error) {
	rng := xrand.New(seed)
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.15, MinWeight: 1, MaxWeight: 40}, rng)
	if err != nil {
		return nil, err
	}
	if _, err := graph.PlantNegativeTriangles(g, 1+n/16, 30, rng.Split("p")); err != nil {
		return nil, err
	}
	return g, nil
}

// HubGraph is the E5 workload: two hub edges that each lie in n/6
// negative triangles while no other pair lies in any, the skewed-Γ input
// of the Proposition 1 sampling reduction.
func HubGraph(n int, seed uint64) (*graph.Undirected, error) {
	return graph.HubUndirected(n, 2, n/6, xrand.New(seed))
}

// SignedGraph is the E10 workload: a dense graph (edge probability 0.5)
// with weights in [-10, 12], so every pair has triangles of both signs to
// classify.
func SignedGraph(n int, seed uint64) (*graph.Undirected, error) {
	return graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -10, MaxWeight: 12}, xrand.New(seed))
}

// SearchTables is the E3 workload: m search instances over a space of the
// given size, each with exactly one marked element drawn from rng.
func SearchTables(m, size int, rng *xrand.Source) [][]bool {
	tables := make([][]bool, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		tables[i][rng.IntN(size)] = true
	}
	return tables
}

// FiniteMatrix is the E6 workload: an n×n matrix with about a fifth of
// the entries absent and the rest drawn uniformly from [-maxAbs, maxAbs].
func FiniteMatrix(n int, maxAbs int64, rng *xrand.Source) *matrix.Matrix {
	m := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Bool(0.2) {
				continue
			}
			m.Set(i, j, rng.Int64N(2*maxAbs+1)-maxAbs)
		}
	}
	return m
}

// RelayMessages is the E8 workload: random point-to-point messages among n
// nodes with at most mult·n per source and per destination, the load
// Lemma 1 delivers in 2·mult rounds.
func RelayMessages(n, mult int, rng *xrand.Source) []congest.Message {
	var msgs []congest.Message
	srcLoad := make([]int, n)
	dstLoad := make([]int, n)
	budget := mult * n
	for i := 0; i < 50*n*mult; i++ {
		s := rng.IntN(n)
		d := rng.IntN(n)
		if s == d || srcLoad[s] >= budget || dstLoad[d] >= budget {
			continue
		}
		srcLoad[s]++
		dstLoad[d]++
		msgs = append(msgs, congest.Message{Src: congest.NodeID(s), Dst: congest.NodeID(d)})
	}
	return msgs
}
