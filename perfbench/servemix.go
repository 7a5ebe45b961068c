package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/serve"
	"qclique/internal/xrand"
)

type opKind int

const (
	opPair opKind = iota
	opRow
	opFull
	opBatch
	opWrite
)

var opNames = [...]string{opPair: "pair", opRow: "row", opFull: "full", opBatch: "batch", opWrite: "write"}

// mixBlock is one block of the serve-mix operation mix: per 20 operations,
// 8 dist pairs, 4 dist rows, 1 full matrix, 3 path batches and 4 writes.
var mixBlock = [...]int{opPair: 8, opRow: 4, opFull: 1, opBatch: 3, opWrite: 4}

// op is one scheduled serve-mix operation.
type op struct {
	kind opKind
	due  time.Duration // since the start of the load
	// graph is the read graph, or for a write the index of its fresh graph.
	graph    int
	src, dst int
	queries  []serve.PathQuery
	body     []byte // the paths:batch request
}

// schedule draws count operations, due at a fixed rate per second. Kinds
// come in shuffled blocks of the mix, so every run has the same number of
// each.
func schedule(seed uint64, n, readGraphs, count int, rate float64) []op {
	rng := xrand.New(seed).Split("serve-mix/schedule")
	var block []opKind
	for k, c := range mixBlock {
		for i := 0; i < c; i++ {
			block = append(block, opKind(k))
		}
	}
	ops := make([]op, 0, count)
	writes := 0
	for len(ops) < count {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(ops) == count {
				break
			}
			o := op{kind: k, due: time.Duration(float64(len(ops)) / rate * float64(time.Second)), graph: rng.IntN(readGraphs), src: rng.IntN(n), dst: rng.IntN(n)}
			switch k {
			case opWrite:
				o.graph = writes
				writes++
			case opBatch:
				o.queries = make([]serve.PathQuery, batchQueries)
				for q := range o.queries {
					o.queries[q] = serve.PathQuery{Src: rng.IntN(n), Dst: rng.IntN(n)}
				}
				// Marshalling a slice of int pairs cannot fail.
				o.body, _ = json.Marshal(map[string]any{"queries": o.queries})
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// opResult is what the client saw for one operation.
type opResult struct {
	started, done time.Time
	status        [2]int
	bodies        [2][]byte // the read's response, or the write's PUT and solve responses
	solve         time.Duration
	err           error
}

// openLoop runs ops on clients goroutines, each taking the next operation
// in order and starting it at its due time, or at once if it is overdue
// because every client was busy. Each result's latency runs from its due
// time, so a stall also delays the operations queued behind it.
func openLoop(ops []op, clients int, start time.Time, exec func(i int, res *opResult)) []opResult {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				sleepUntil(start.Add(ops[i].due))
				results[i].started = time.Now()
				exec(i, &results[i])
				results[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return results
}

// sleepUntil waits until t. An idle Go process wakes from a timer up to a
// millisecond late, which would add about half a millisecond to every
// latency timed from a due time, so the last millisecond is spent yielding
// in a loop. At serve-mix's rate that costs at most a tenth of one CPU.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const (
	requestHeader = "X-Request-Id"
	spanHeader    = "X-Bench-Span"
)

// httpProbeReps is the number of reads of each kind httpOverhead times.
const httpProbeReps = 400

// timedHandler records the time of every request inside the handler as a
// span under the client span named in its headers.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		tr.add("handler."+route(r), parent, req, start, end)
	})
}

func route(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPut:
		return "put"
	case strings.HasSuffix(p, "/solve"):
		return "solve"
	case strings.HasSuffix(p, "/dist"), strings.HasSuffix(p, "/paths:batch"):
		return "read"
	default:
		return "other"
	}
}

// client issues the benchmark's HTTP requests. It hands each one to the
// service's handler in the calling goroutine and records the response, so a
// request runs all of serve.NewHandler (routing, the result cache, JSON
// encoding) but crosses no socket. Over loopback TCP, a cached read waits on
// several hand-offs between goroutines, each of which may wait for an idle
// CPU to wake; on a shared host that wait made up most of a read's latency
// and moved its median by a quarter from one run of the same code to the
// next. serve.http_overhead_ms measures what loopback HTTP adds.
type client struct {
	h  http.Handler
	tr *tracer
}

// call sends one request and reads the whole response. With tracing it
// records an http.<route> span under parent.
func (c *client) call(method, path string, body []byte, req, parent int64) (int, []byte, error) {
	hr := httptest.NewRequest(method, path, bytes.NewReader(body))
	hr.Header.Set(requestHeader, strconv.FormatInt(req, 10))
	id := c.tr.reserve()
	if id != 0 {
		hr.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	c.h.ServeHTTP(rec, hr)
	c.tr.finish(id, "http."+route(hr), parent, req, start, time.Now())
	return rec.Code, rec.Body.Bytes(), nil
}

// httpOverhead is what loopback HTTP adds to a cached read: the median time
// of reps dist pair reads of graph id sent with http.Client to
// httptest.NewServer(h), less the median time of the same reads handed to h
// in-process. The two kinds alternate, so a change in the host's speed
// during the probe moves both.
func httpOverhead(h http.Handler, id string, n, reps int) (float64, error) {
	srv := httptest.NewServer(h)
	defer srv.Close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var overHTTP, inProcess sample
	for r := 0; r < reps; r++ {
		path := fmt.Sprintf("/v1/graphs/%s/dist?src=%d&dst=%d", id, r%n, r/n%n)
		start := time.Now()
		resp, err := hc.Get(srv.URL + path)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s over HTTP: status %d", path, resp.StatusCode)
		}
		if err != nil {
			return 0, err
		}
		overHTTP = append(overHTTP, ms(time.Since(start)))
		rec := httptest.NewRecorder()
		start = time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		inProcess = append(inProcess, ms(time.Since(start)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("GET %s in-process: status %d", path, rec.Code)
		}
	}
	return overHTTP.median() - inProcess.median(), nil
}

// putAndSolve uploads g and solves it with the service's default strategy.
func (c *client) putAndSolve(body []byte, req, parent int64, res *opResult) {
	status, b, err := c.call(http.MethodPut, "/v1/graphs", body, req, parent)
	res.status[0], res.bodies[0] = status, b
	if err != nil || status != http.StatusOK {
		res.err = fmt.Errorf("PUT /v1/graphs: status %d: %v %s", status, err, b)
		return
	}
	var put struct{ ID string }
	if err := json.Unmarshal(b, &put); err != nil || put.ID == "" {
		res.err = fmt.Errorf("PUT /v1/graphs: bad reply %s", b)
		return
	}
	start := time.Now()
	status, b, err = c.call(http.MethodPost, "/v1/graphs/"+put.ID+"/solve", []byte("{}"), req, parent)
	res.solve = time.Since(start)
	res.status[1], res.bodies[1] = status, b
	if err != nil || status != http.StatusOK {
		res.err = fmt.Errorf("POST solve: status %d: %v %s", status, err, b)
	}
}

func graphBody(g *graph.Digraph) ([]byte, error) {
	gj := serve.GraphJSON{N: g.N()}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if w, ok := g.Weight(u, v); ok {
				gj.Arcs = append(gj.Arcs, serve.ArcJSON{U: u, V: v, W: w})
			}
		}
	}
	return json.Marshal(gj)
}

func (c *client) metrics() (serve.Stats, error) {
	var st serve.Stats
	status, b, err := c.call(http.MethodGet, "/v1/metrics", nil, 0, 0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// runServeMix runs serve-mix: set-up uploads and pre-solves the read graphs,
// then the open-loop load runs, then every answer is checked.
func runServeMix(s *settings, tr *tracer) (*outcome, error) {
	readGs, err := e1Graphs(s.seed, "serve-mix/read", s.n, s.graphs)
	if err != nil {
		return nil, err
	}
	refs, err := references(readGs, s.workers)
	if err != nil {
		return nil, err
	}
	readBodies := make([][]byte, len(readGs))
	for i, g := range readGs {
		if readBodies[i], err = graphBody(g); err != nil {
			return nil, err
		}
	}
	ops := schedule(s.seed, s.n, s.graphs, int(math.Round(s.rate*s.seconds.Seconds())), s.rate)
	writes := 0
	for _, o := range ops {
		if o.kind == opWrite {
			writes++
		}
	}
	// Write graphs are kept only as request bodies, so the benchmark's own
	// heap stays small beside the service's. The last one is the warm-up.
	writeBodies := make([][]byte, writes+1)
	for i := range writeBodies {
		g, err := e1Graph(s.seed, "serve-mix/write", s.n, i)
		if err == nil {
			writeBodies[i], err = graphBody(g)
		}
		if err != nil {
			return nil, err
		}
	}
	o := newOutcome()

	c, ids, err := setUpService(s, tr, o, writeBodies[writes], readBodies)
	if err != nil {
		return nil, err
	}
	before, err := c.metrics()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := openLoop(ops, s.workers, start, func(i int, res *opResult) {
		job := ops[i]
		req, due := int64(i+1), start.Add(job.due)
		root := tr.reserve()
		tr.add("loadgen.wait", root, req, due, time.Now())
		switch job.kind {
		case opWrite:
			c.putAndSolve(writeBodies[job.graph], req, root, res)
		case opBatch:
			res.status[0], res.bodies[0], res.err = c.call(http.MethodPost, "/v1/graphs/"+ids[job.graph]+"/paths:batch", job.body, req, root)
		default:
			q := ""
			switch job.kind {
			case opPair:
				q = fmt.Sprintf("?src=%d&dst=%d", job.src, job.dst)
			case opRow:
				q = fmt.Sprintf("?src=%d", job.src)
			}
			res.status[0], res.bodies[0], res.err = c.call(http.MethodGet, "/v1/graphs/"+ids[job.graph]+"/dist"+q, nil, req, root)
		}
		tr.finish(root, "op."+opNames[job.kind], 0, req, due, time.Now())
	})
	after, err := c.metrics()
	if err != nil {
		return nil, err
	}
	if err := verifyWrites(s, c, ops, results); err != nil {
		return nil, err
	}

	summarize(s, o, ops, results, start, readGs, refs)
	serveLayer(o, before, after)
	if tr != nil {
		handlerLayer(o, tr.snapshot())
		if o.layer["serve.http_overhead_ms"], err = httpOverhead(c.h, ids[0], s.n, httpProbeReps); err != nil {
			return nil, err
		}
		g, err := e1Graph(s.seed, "serve-mix/write", s.n, writes)
		if err != nil {
			return nil, err
		}
		speedup, err := parSpeedup(g, core.Config{Strategy: core.StrategyGossip, Workspace: core.NewWorkspace()}, s.workers, 5)
		if err != nil {
			return nil, err
		}
		o.layer["par.speedup"] = speedup
	}
	return o, nil
}

// setUpService builds the service as apspd configures it and its handler,
// runs a warm-up write, and uploads and pre-solves the read graphs, setupReps
// times, each after an untimed garbage collection; it records the median
// set-up time and returns the last service's client and the read graphs' ids.
func setUpService(s *settings, tr *tracer, o *outcome, warmBody []byte, readBodies [][]byte) (*client, []string, error) {
	var setup sample
	var c *client
	var ids []string
	for r := 0; r < s.setupReps; r++ {
		c = nil // the previous repetition's service is garbage
		runtime.GC()
		start := time.Now()
		svc := serve.New(serve.Config{
			CacheSize: 64, MaxGraphs: 1024, MaxInflight: s.workers, QueueDepth: 64,
			DefaultStrategy: core.StrategyAuto,
		})
		var h http.Handler = serve.NewHandler(svc)
		if tr != nil {
			h = timedHandler(h, tr)
		}
		c = &client{h: h, tr: tr}
		var warm opResult
		c.putAndSolve(warmBody, 0, 0, &warm)
		o.attempted++
		if o.fail(warm.err, "warm-up") {
			continue
		}
		ids = ids[:0]
		for i, body := range readBodies {
			var pre opResult
			c.putAndSolve(body, 0, 0, &pre)
			o.attempted++
			if o.fail(pre.err, fmt.Sprintf("pre-solve of read graph %d", i)) {
				continue
			}
			var put struct{ ID string }
			if err := json.Unmarshal(pre.bodies[0], &put); err != nil {
				return nil, nil, err
			}
			ids = append(ids, put.ID)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	if len(ids) != len(readBodies) {
		return nil, nil, fmt.Errorf("set-up failed: %v", o.failures)
	}
	o.e2e["setup_s"] = setup.median()
	return c, ids, nil
}

// summarize checks every answer of the load and stores the end-to-end
// metrics and the per-layer figures the answers carry.
func summarize(s *settings, o *outcome, ops []op, results []opResult, start time.Time, readGs []*graph.Digraph, refs [][]int64) {
	var readMS, writeMS, solveS, lateMS, localSqS, squareS sample
	var rounds, words, phases int64
	writes := 0
	drained := start
	for i, res := range results {
		job := ops[i]
		due := start.Add(job.due)
		if res.done.After(drained) {
			drained = res.done
		}
		lateMS = append(lateMS, ms(res.started.Sub(due)))
		latency := ms(res.done.Sub(due))
		o.attempted++
		if job.kind != opWrite {
			if !o.fail(checkRead(job, res, readGs[job.graph], refs[job.graph]), "read "+opNames[job.kind]) {
				readMS = append(readMS, latency)
			}
			continue
		}
		writes++
		sj, err := checkWrite(res)
		if o.fail(err, "write") {
			continue
		}
		writeMS = append(writeMS, latency)
		solveS = append(solveS, res.solve.Seconds())
		rounds += sj.Rounds
		var sq, lsq float64
		for _, st := range sj.Stages {
			words += st.Words
			phases += st.Phases
			switch {
			case strings.HasPrefix(st.Name, "square"):
				sq += time.Duration(st.WallNs).Seconds()
			case st.Name == "local-squaring":
				lsq += time.Duration(st.WallNs).Seconds()
			}
		}
		squareS = append(squareS, sq)
		localSqS = append(localSqS, lsq)
	}

	o.e2e["solve_s_p50"] = solveS.median()
	o.e2e["rounds"] = float64(rounds)
	o.e2e["words"] = float64(words)
	o.e2e["read_p50_ms"] = readMS.median()
	o.tail("read_p99_ms", readMS, 99)
	o.e2e["write_p50_ms"] = writeMS.median()
	o.tail("write_p99_ms", writeMS, 99)
	o.e2e["achieved_rps"] = float64(len(readMS)+len(writeMS)) / drained.Sub(start).Seconds()
	o.primary = o.e2e["read_p50_ms"]
	o.notef("%d reads and %d writes offered at %g ops/s over %.1fs; drained in %.2fs",
		len(ops)-writes, writes, s.rate, s.seconds.Seconds(), drained.Sub(start).Seconds())

	late, _ := lateMS.at(99)
	o.layer["loadgen.late_p99_ms"] = late
	o.layer["engine.stage_s.square"] = squareS.median()
	o.layer["engine.stage_s.local-squaring"] = localSqS.median()
	o.layer["congest.phases"] = float64(phases)
}

// handlerLayer stores the handler times from the traced pass's spans.
func handlerLayer(o *outcome, spans []span) {
	handler := map[string]sample{}
	for _, sp := range spans {
		if sp.Req == 0 { // set-up and /v1/metrics calls
			continue
		}
		if r, ok := strings.CutPrefix(sp.Name, "handler."); ok {
			handler[r] = append(handler[r], ms(sp.dur()))
		}
	}
	for _, r := range []string{"read", "put", "solve"} {
		o.layer["serve.handler_ms."+r] = handler[r].median()
	}
}

// serveLayer stores the serve-layer counts: /v1/metrics deltas over the load.
func serveLayer(o *outcome, before, after serve.Stats) {
	var requests, hits, solves, retries int64
	for name, a := range after.Strategies {
		b := before.Strategies[name]
		requests += a.Requests - b.Requests
		hits += a.CacheHits - b.CacheHits
		solves += a.Solves - b.Solves
		retries += a.Retries - b.Retries
	}
	var deliveries, messages int64
	for name, a := range after.Transports {
		b := before.Transports[name]
		deliveries += a.Deliveries - b.Deliveries
		messages += a.Messages - b.Messages
	}
	o.layer["serve.cache_hit_ratio"] = float64(hits) / float64(max(requests, 1))
	o.layer["serve.solves"] = float64(solves)
	o.layer["serve.shed"] = float64(after.Admission.Shed - before.Admission.Shed)
	o.layer["serve.queue_wait_ms"] = float64(after.Admission.QueueWaitNs-before.Admission.QueueWaitNs) / 1e6 / float64(max(solves, 1))
	o.layer["engine.retries"] = float64(retries)
	o.layer["congest.deliveries"] = float64(deliveries)
	o.layer["congest.messages"] = float64(messages)
	for _, s := range core.AllStrategies() {
		var b, a int64
		if before.Planner != nil {
			b = before.Planner.Chosen[s.String()]
		}
		if after.Planner != nil {
			a = after.Planner.Chosen[s.String()]
		}
		o.layer["serve.planner.chosen."+s.String()] = float64(a - b)
	}
}

// verifyWrites reads back the distances of every write that succeeded,
// once the load has drained, and records a mismatch with the
// graph.FloydWarshall reference as the write's error. A result the cache has
// evicted is solved again; solves are deterministic, so that is the answer
// the write got. The reads carry request id 0, like the set-up calls, so the
// handler figures leave them out.
func verifyWrites(s *settings, c *client, ops []op, results []opResult) error {
	quiet := *c
	quiet.tr = nil
	for i, job := range ops {
		res := &results[i]
		if job.kind != opWrite || res.err != nil {
			continue
		}
		g, err := e1Graph(s.seed, "serve-mix/write", s.n, job.graph)
		if err != nil {
			return err
		}
		ref, err := graph.FloydWarshall(g)
		if err != nil {
			return err
		}
		var put struct{ ID string }
		if err := json.Unmarshal(res.bodies[0], &put); err != nil {
			return err // putAndSolve accepted this reply
		}
		var back opResult
		back.status[0], back.bodies[0], back.err = quiet.call(http.MethodGet, "/v1/graphs/"+put.ID+"/dist", nil, 0, 0)
		if err := checkRead(op{kind: opFull}, back, g, ref); err != nil {
			res.err = fmt.Errorf("distances of write graph %d: %w", job.graph, err)
		}
	}
	return nil
}

// checkWrite verifies a write: both calls answered 200 and the solve's stage
// rounds sum to its total. verifyWrites checks its distances.
func checkWrite(res opResult) (*serve.SolveJSON, error) {
	if res.err != nil {
		return nil, res.err
	}
	var sj serve.SolveJSON
	if err := json.Unmarshal(res.bodies[1], &sj); err != nil {
		return nil, fmt.Errorf("solve reply: %w", err)
	}
	var sum int64
	for _, st := range sj.Stages {
		sum += st.Rounds
	}
	if sum != sj.Rounds || sj.Rounds <= 0 {
		return nil, fmt.Errorf("solve of %s: stage rounds sum to %d, total %d", sj.ID, sum, sj.Rounds)
	}
	return &sj, nil
}

// checkRead verifies a read's answer against the reference distances.
func checkRead(job op, res opResult, g *graph.Digraph, ref []int64) error {
	if res.err != nil {
		return res.err
	}
	if res.status[0] != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.status[0], res.bodies[0])
	}
	n := g.N()
	want := func(i, j int) *int64 {
		if d := ref[i*n+j]; d < graph.Inf {
			return &d
		}
		return nil
	}
	same := func(got, want *int64) bool {
		return (got == nil) == (want == nil) && (got == nil || *got == *want)
	}
	switch job.kind {
	case opBatch:
		var reply struct{ Results []serve.PathJSON }
		if err := json.Unmarshal(res.bodies[0], &reply); err != nil {
			return err
		}
		if len(reply.Results) != len(job.queries) {
			return fmt.Errorf("%d answers for %d queries", len(reply.Results), len(job.queries))
		}
		for i, a := range reply.Results {
			q := job.queries[i]
			var err error
			if a.Error != "" {
				err = fmt.Errorf("%s", a.Error)
				if ref[q.Src*n+q.Dst] >= graph.Inf {
					err = core.ErrNoPath
				}
			}
			var d int64
			if a.Dist != nil {
				d = *a.Dist
			}
			if a.Src != q.Src || a.Dst != q.Dst {
				return fmt.Errorf("answer %d is for %d->%d, asked %d->%d", i, a.Src, a.Dst, q.Src, q.Dst)
			}
			if err := checkPath(g, ref, q.Src, q.Dst, d, a.Path, err); err != nil {
				return err
			}
		}
	case opPair:
		var reply struct{ Dist *int64 }
		if err := json.Unmarshal(res.bodies[0], &reply); err != nil {
			return err
		}
		if !same(reply.Dist, want(job.src, job.dst)) {
			return fmt.Errorf("d(%d,%d) = %v, reference %d", job.src, job.dst, reply.Dist, ref[job.src*n+job.dst])
		}
	case opRow, opFull:
		var reply struct{ Dist json.RawMessage }
		if err := json.Unmarshal(res.bodies[0], &reply); err != nil {
			return err
		}
		var rows [][]*int64
		first := job.src
		if job.kind == opRow {
			var row []*int64
			if err := json.Unmarshal(reply.Dist, &row); err != nil {
				return err
			}
			rows = [][]*int64{row}
		} else {
			first = 0
			if err := json.Unmarshal(reply.Dist, &rows); err != nil {
				return err
			}
			if len(rows) != n {
				return fmt.Errorf("%d rows, want %d", len(rows), n)
			}
		}
		for r, row := range rows {
			if len(row) != n {
				return fmt.Errorf("row of %d entries, want %d", len(row), n)
			}
			for j, got := range row {
				if !same(got, want(first+r, j)) {
					return fmt.Errorf("d(%d,%d) = %v, reference %d", first+r, j, got, ref[(first+r)*n+j])
				}
			}
		}
	}
	return nil
}
