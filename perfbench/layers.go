package main

import (
	"fmt"
	"time"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/par"
	"qclique/internal/qsearch"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// probeSizes sizes the calls the traced run times on each layer alone.
type probeSizes struct {
	productN     int // A_G side of the distprod.ProductInto call
	promiseN     int // vertices of the FindEdgesWithPromise and CoveringTrial instances
	multisearchM int // parallel searches of the MultiSearch call
	minplusN     int // side of the MulMinPlusInto call
	exchangeN    int // nodes of the all-to-all ExchangeDirect
	reps         int // repetitions of the slow probes; fast ones repeat more
}

// fullProbes are the benchmark's sizes: the quantum-apsp product (n=64,
// whose tripartite instance has 3n=192 vertices), the E3 search tables and
// the gossip-kernel matrix.
var fullProbes = probeSizes{productN: 64, promiseN: 192, multisearchM: 8000, minplusN: 512, exchangeN: 192, reps: 3}

// timed returns the median wall time of reps calls of fn, recording each
// call as a span.
func timed(tr *tracer, name string, reps int, fn func() error) (time.Duration, error) {
	var walls sample
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		tr.add(name, 0, 0, start, end)
		walls = append(walls, float64(end.Sub(start)))
	}
	return time.Duration(walls.median()), nil
}

// probeLayers times one call into each layer's public functions, at sizes
// that do not depend on the workload, and stores the per-layer metrics.
func probeLayers(s *settings, o *outcome, tr *tracer) error {
	p := s.probe
	params := triangles.BenchParams()
	rng := xrand.New(s.seed).Split("probe")

	gp, err := graph.RandomDigraph(p.productN, e1Opts, rng.Split("product"))
	if err != nil {
		return err
	}
	ag := matrix.FromDigraph(gp)
	prod := matrix.New(p.productN)
	dws := distprod.NewWorkspace()
	var steps int
	d, err := timed(tr, "probe.distprod.ProductInto", p.reps, func() error {
		st, err := distprod.ProductInto(prod, ag, ag, distprod.Options{
			Solver: distprod.SolverQuantum, Params: &params, Seed: s.seed, Workers: s.workers, Workspace: dws,
		})
		if err == nil {
			steps = st.BinarySearchSteps
		}
		return err
	})
	if err != nil {
		return err
	}
	o.layer["distprod.product_s"] = d.Seconds()
	o.layer["distprod.binary_search_steps"] = float64(steps)

	tg, err := graph.RandomUndirected(p.promiseN, graph.UndirectedOpts{EdgeProb: 0.15, MinWeight: 1, MaxWeight: 40}, rng.Split("promise"))
	if err != nil {
		return err
	}
	if _, err := graph.PlantNegativeTriangles(tg, 1+p.promiseN/16, 30, rng.Split("plant")); err != nil {
		return err
	}
	d, err = timed(tr, "probe.triangles.FindEdgesWithPromise", p.reps, func() error {
		_, err := triangles.FindEdgesWithPromise(triangles.Instance{G: tg}, triangles.Options{
			Seed: s.seed, Params: &params, Data: triangles.DataDirect, Workers: s.workers,
		})
		return err
	})
	if err != nil {
		return err
	}
	o.layer["triangles.find_edges_promise_s"] = d.Seconds()
	d, err = timed(tr, "probe.triangles.CoveringTrial", p.reps, func() error {
		_, err := triangles.CoveringTrial(p.promiseN, params, s.seed)
		return err
	})
	if err != nil {
		return err
	}
	o.layer["triangles.covering_trial_s"] = d.Seconds()

	// The E3 tables: one marked element among 8 per search.
	const space = 8
	tables := make([][]bool, p.multisearchM)
	trng := rng.Split("tables")
	for i := range tables {
		tables[i] = make([]bool, space)
		tables[i][trng.IntN(space)] = true
	}
	d, err = timed(tr, "probe.qsearch.MultiSearch", p.reps, func() error {
		nw, err := congest.NewNetwork(8)
		if err != nil {
			return err
		}
		defer nw.Close()
		_, err = qsearch.MultiSearch(nw, qsearch.Spec{
			SpaceSize: space, Instances: p.multisearchM, Eval: qsearch.LocalEval(tables, 1),
			Beta: 8*float64(p.multisearchM)/space + 64, Workers: s.workers,
		}, rng.Split("search"))
		return err
	})
	if err != nil {
		return err
	}
	o.layer["qsearch.multisearch_s"] = d.Seconds()

	gm, err := graph.RandomDigraph(p.minplusN, e1Opts, rng.Split("minplus"))
	if err != nil {
		return err
	}
	am := matrix.FromDigraph(gm)
	dst := matrix.New(p.minplusN)
	d, err = timed(tr, "probe.matrix.MulMinPlusInto", 2*p.reps, func() error {
		return matrix.MulMinPlusInto(dst, am, am, s.workers)
	})
	if err != nil {
		return err
	}
	n := float64(p.minplusN)
	o.layer["matrix.minplus_s"] = d.Seconds()
	o.layer["matrix.minplus_gops"] = n * n * n / d.Seconds() / 1e9 // computed from n³
	o.layer["matrix.minplus_bytes"] = 3 * n * n * 8                // computed: two inputs and one output of int64
	o.notef("matrix.minplus_gops and matrix.minplus_bytes are computed from n³ and 3·n²·8 at n=%d, not measured", p.minplusN)

	const items = 1024
	d, err = timed(tr, "probe.par.For", 500*p.reps, func() error {
		par.For(s.workers, items, func(int) {})
		return nil
	})
	if err != nil {
		return err
	}
	o.layer["par.for_dispatch_us"] = float64(d) / float64(time.Microsecond)

	msgs := make([]congest.Message, 0, p.exchangeN*(p.exchangeN-1))
	for u := 0; u < p.exchangeN; u++ {
		for v := 0; v < p.exchangeN; v++ {
			if u != v {
				msgs = append(msgs, congest.Message{Src: congest.NodeID(u), Dst: congest.NodeID(v), Data: []congest.Word{congest.Word(u)}})
			}
		}
	}
	for _, backend := range []string{"local", "sharded"} {
		nw, err := congest.NewNetwork(p.exchangeN, congest.WithTransport(backend), congest.WithTransportShards(s.workers))
		if err != nil {
			return err
		}
		d, err := timed(tr, "probe.congest.ExchangeDirect."+backend, 10*p.reps, func() error {
			_, err := nw.ExchangeDirect("probe", msgs)
			return err
		})
		nw.Close()
		if err != nil {
			return err
		}
		o.layer["congest.exchange_us."+backend] = float64(d) / float64(time.Microsecond)
	}
	return nil
}
