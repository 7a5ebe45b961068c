package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// e1Opts are the generator options of the repository's E1 benchmark, so the
// numbers line up with its history.
var e1Opts = graph.DigraphOpts{ArcProb: 0.4, MinWeight: -8, MaxWeight: 8, NoNegativeCycles: true}

// e1Graph draws the i-th E1 digraph on n vertices of the seed's label set.
func e1Graph(seed uint64, label string, n, i int) (*graph.Digraph, error) {
	return graph.RandomDigraph(n, e1Opts, xrand.New(seed).Split(label).SplitN("graph", i))
}

// e1Graphs draws the first count graphs of the seed's label set.
func e1Graphs(seed uint64, label string, n, count int) ([]*graph.Digraph, error) {
	gs := make([]*graph.Digraph, count)
	for i := range gs {
		g, err := e1Graph(seed, label, n, i)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return gs, nil
}

// references computes graph.FloydWarshall for every graph on up to workers
// goroutines of its own, so the program's worker pool is not started before
// set-up is timed.
func references(gs []*graph.Digraph, workers int) ([][]int64, error) {
	refs := make([][]int64, len(gs))
	errs := make([]error, len(gs))
	next := make(chan int, len(gs))
	for i := range gs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(gs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = graph.FloydWarshall(gs[i])
			}
		}()
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// checkSolve verifies a library solve against its reference: distances,
// and stage rounds summing exactly to the total.
func checkSolve(res *core.Result, ref []int64) error {
	n := res.Dist.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := res.Dist.At(i, j), ref[i*n+j]; got != want {
				return fmt.Errorf("d(%d,%d) = %d, reference %d", i, j, got, want)
			}
		}
	}
	if sum := engine.SumRounds(res.Stages); sum != res.Rounds {
		return fmt.Errorf("stage rounds sum to %d, total is %d", sum, res.Rounds)
	}
	return nil
}

// checkPath verifies one shortest-path answer against the reference.
func checkPath(g *graph.Digraph, ref []int64, src, dst int, dist int64, path []int, err error) error {
	want := ref[src*g.N()+dst]
	if want >= graph.Inf {
		if !errors.Is(err, core.ErrNoPath) {
			return fmt.Errorf("path %d->%d: want no path, got %v (err %v)", src, dst, path, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("path %d->%d: %w", src, dst, err)
	}
	if dist != want {
		return fmt.Errorf("dist %d->%d = %d, reference %d", src, dst, dist, want)
	}
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("path %d->%d has endpoints %v", src, dst, path)
	}
	var sum int64
	for k := 1; k < len(path); k++ {
		w, ok := g.Weight(path[k-1], path[k])
		if !ok {
			return fmt.Errorf("path %d->%d uses missing arc %d->%d", src, dst, path[k-1], path[k])
		}
		sum += w
	}
	if sum != want {
		return fmt.Errorf("path %d->%d weighs %d, reference %d", src, dst, sum, want)
	}
	return nil
}

// batchQueries is the number of queries in one read, as in serve-mix's
// paths:batch.
const batchQueries = 32

// stageMark is the time a stage began, taken from core.Config.StageHook.
type stageMark struct {
	name string
	at   time.Time
}

// runLibrary runs quantum-apsp or gossip-kernel: one caller solving a fixed
// set of graphs in rotation with core.Solve through one warm workspace, each
// solve followed by readsPerWrite path batches answered from the result.
// Garbage is collected before each solve and before each solve's reads (see
// the package comment).
func runLibrary(s *settings, tr *tracer) (*outcome, error) {
	gs, err := e1Graphs(s.seed, s.workload, s.n, s.graphs)
	if err != nil {
		return nil, err
	}
	refs, err := references(gs, s.workers)
	if err != nil {
		return nil, err
	}
	params := triangles.BenchParams()
	config := func(i int, ws *core.Workspace) core.Config {
		return core.Config{
			Strategy: s.strategy, Params: &params, Workers: s.workers, Workspace: ws,
			Seed: xrand.New(s.seed).SplitN("solve", i).Uint64(),
		}
	}
	o := newOutcome()

	var setup sample
	var ws *core.Workspace
	for r := 0; r < s.setupReps; r++ {
		ws = nil // the previous repetition's workspace is garbage
		runtime.GC()
		start := time.Now()
		ws = core.NewWorkspace()
		res, err := core.Solve(gs[0], config(0, ws))
		setup = append(setup, time.Since(start).Seconds())
		o.attempted++
		if err == nil {
			err = checkSolve(res, refs[0])
		}
		o.fail(err, "warm-up solve")
	}

	type firstPass struct {
		rounds, words, phases, deliveries, messages int64
	}
	first := make([]*firstPass, s.graphs)
	var solveS, writeMS, readMS, squareS, localSqS sample
	var retries int64
	var req int64
	start := time.Now()
	// Whole passes over the graph set, so every graph weighs the same in the
	// medians however many solves the host's speed allows.
	for i := 0; i < s.graphs || i%s.graphs != 0 || time.Since(start) < s.seconds; i++ {
		gi := i % s.graphs
		g := gs[gi]
		cfg := config(gi, ws)
		var marks []stageMark
		if tr != nil {
			cfg.StageHook = func(_ int, name string) { marks = append(marks, stageMark{name, time.Now()}) }
		}
		runtime.GC()
		t0 := time.Now()
		res, err := core.Solve(g, cfg)
		t1 := time.Now()
		o.attempted++
		if err == nil {
			err = checkSolve(res, refs[gi])
		}
		if err == nil && first[gi] != nil && (res.Rounds != first[gi].rounds || res.Metrics.Words != first[gi].words) {
			err = fmt.Errorf("graph %d: repeat solve charged %d rounds / %d words, first solve %d / %d",
				gi, res.Rounds, res.Metrics.Words, first[gi].rounds, first[gi].words)
		}
		if o.fail(err, "solve") {
			continue
		}
		if first[gi] == nil {
			first[gi] = &firstPass{res.Rounds, res.Metrics.Words, res.Metrics.Phases, res.Transport.Deliveries, res.Transport.Messages}
		}
		for _, st := range res.Stages {
			retries += int64(st.Retries)
		}
		solveS = append(solveS, t1.Sub(t0).Seconds())
		writeMS = append(writeMS, ms(t1.Sub(t0)))
		if tr != nil {
			req++
			op := tr.add("write", 0, req, t0, t1)
			sv := tr.add("core.Solve", op, req, t0, t1)
			sq, lsq, err := stageSpans(tr, sv, req, marks, res.Stages, t0, t1)
			if o.fail(err, "stage spans") {
				continue
			}
			squareS = append(squareS, sq)
			localSqS = append(localSqS, lsq)
		}

		runtime.GC()
		rng := xrand.New(s.seed).SplitN("reads", i)
		var qs [batchQueries][2]int
		var dists [batchQueries]int64
		var paths [batchQueries][]int
		var errs [batchQueries]error
		for r := 0; r < readsPerWrite(); r++ {
			for q := range qs {
				qs[q] = [2]int{rng.IntN(s.n), rng.IntN(s.n)}
			}
			// Each read answers from a fresh oracle, as the first batch after
			// a solve does. One shared oracle would cache successor trees
			// across the solve's reads, so the first read would build about
			// five times as many as the fourth and the median would fall
			// between them.
			r0 := time.Now()
			oracle, err := core.NewPathOracle(g, res.Dist)
			for q, p := range qs {
				if errs[q] = err; err == nil {
					dists[q], errs[q] = oracle.Dist(p[0], p[1])
				}
				if errs[q] == nil {
					paths[q], errs[q] = oracle.Path(p[0], p[1])
				}
			}
			r1 := time.Now()
			o.attempted++
			var rerr error
			for q, p := range qs {
				if rerr = checkPath(g, refs[gi], p[0], p[1], dists[q], paths[q], errs[q]); rerr != nil {
					break
				}
			}
			if o.fail(rerr, "read") {
				continue
			}
			readMS = append(readMS, ms(r1.Sub(r0)))
			if tr != nil {
				req++
				tr.add("read", 0, req, r0, r1)
			}
		}
	}
	wall := time.Since(start)

	var p firstPass
	for _, f := range first {
		if f == nil {
			return nil, errors.New("a graph of the set never solved correctly")
		}
		p.rounds += f.rounds
		p.words += f.words
		p.phases += f.phases
		p.deliveries += f.deliveries
		p.messages += f.messages
	}
	o.e2e["setup_s"] = setup.median()
	o.e2e["solve_s_p50"] = solveS.median()
	o.e2e["rounds"] = float64(p.rounds)
	o.e2e["words"] = float64(p.words)
	o.e2e["read_p50_ms"] = readMS.median()
	o.tail("read_p99_ms", readMS, 99)
	o.e2e["write_p50_ms"] = writeMS.median()
	o.tail("write_p99_ms", writeMS, 99)
	o.e2e["achieved_rps"] = float64(len(solveS)+len(readMS)) / wall.Seconds()
	o.primary = o.e2e["solve_s_p50"]
	o.notef("%d solves over %d graphs, %d reads of %d path queries, %.1fs measured", len(solveS), s.graphs, len(readMS), batchQueries, wall.Seconds())

	o.layer["engine.stage_s.square"] = squareS.median()
	o.layer["engine.stage_s.local-squaring"] = localSqS.median()
	o.layer["engine.retries"] = float64(retries)
	o.layer["congest.phases"] = float64(p.phases)
	o.layer["congest.deliveries"] = float64(p.deliveries)
	o.layer["congest.messages"] = float64(p.messages)

	if tr != nil {
		speedup, err := parSpeedup(gs[0], config(0, ws), s.workers, 1)
		if err != nil {
			return nil, err
		}
		o.layer["par.speedup"] = speedup
	}
	return o, nil
}

// stageSpans turns the stage-boundary marks of one solve into spans under
// the solve span and returns the time spent in square stages and in the
// local-squaring stage. Stage i runs from its mark to the next one; the
// last ends when Solve returns. The spans tile the solve from the first
// mark by construction, so they are checked against the engine's own
// figures instead: one mark per stage the engine reports, the first inside
// the solve span, and each span at least the wall time the engine measured
// inside it.
func stageSpans(tr *tracer, parent, req int64, marks []stageMark, stats []engine.StageStat, t0, t1 time.Time) (square, localSq float64, err error) {
	if len(marks) != len(stats) {
		return 0, 0, fmt.Errorf("%d stage marks for %d engine stages", len(marks), len(stats))
	}
	if len(marks) > 0 && (marks[0].at.Before(t0) || marks[0].at.After(t1)) {
		return 0, 0, fmt.Errorf("first stage mark lies outside the solve span")
	}
	for i, m := range marks {
		end := t1
		if i+1 < len(marks) {
			end = marks[i+1].at
		}
		d := end.Sub(m.at)
		if m.name != stats[i].Name || d < stats[i].Wall() {
			return 0, 0, fmt.Errorf("stage %d: span %s of %v does not hold the engine's %s of %v", i, m.name, d, stats[i].Name, stats[i].Wall())
		}
		tr.add("engine."+m.name, parent, req, m.at, end)
		switch {
		case strings.HasPrefix(m.name, "square"):
			square += d.Seconds()
		case m.name == "local-squaring":
			localSq += d.Seconds()
		}
	}
	return square, localSq, nil
}

// parSpeedup is the median wall time of reps solves of g at one worker over
// the median at workers.
func parSpeedup(g *graph.Digraph, cfg core.Config, workers, reps int) (float64, error) {
	wall := func(w int) (float64, error) {
		c := cfg
		c.Workers = w
		var walls sample
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := core.Solve(g, c); err != nil {
				return 0, err
			}
			walls = append(walls, time.Since(start).Seconds())
		}
		return walls.median(), nil
	}
	one, err := wall(1)
	if err != nil {
		return 0, err
	}
	many, err := wall(workers)
	if err != nil {
		return 0, err
	}
	return one / many, nil
}
