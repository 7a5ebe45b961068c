package serve

// Versioned-mount and transport-selection coverage of the HTTP surface:
// every route answers under /v1 and only there, the transport request
// parameter reaches the simulator and is echoed (and rolled up in
// /metrics), and concurrent sharded solves are race-clean.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestHTTPV1PrefixAndLegacyAliases(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	g := symDigraph(t, 8)
	gj := GraphJSON{N: g.N()}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if w, ok := g.Weight(u, v); ok {
				gj.Arcs = append(gj.Arcs, ArcJSON{U: u, V: v, W: w})
			}
		}
	}

	var put struct {
		ID string `json:"id"`
	}
	resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", gj, &put)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/graphs: %d", resp.StatusCode)
	}

	// The unprefixed legacy aliases are gone: every route lives under /v1.
	if resp := doJSON(t, srv, http.MethodPut, "/graphs", gj, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("PUT /graphs (legacy alias): %d, want 404", resp.StatusCode)
	}

	// A solve on the versioned mount with an explicit transport echoes the
	// backend that executed it. Quantum materializes its exchanges, so the
	// per-transport rollup must show delivered traffic.
	var sj SolveJSON
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		solveParamsJSON{Strategy: "quantum", Transport: "sharded"}, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded solve: %d", resp.StatusCode)
	}
	if sj.Transport != "sharded" {
		t.Errorf("solve echoed transport %q, want sharded", sj.Transport)
	}

	// An unknown transport is a 400 with the invalid_spec envelope.
	var fail struct {
		Error ErrorJSON `json:"error"`
	}
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		solveParamsJSON{Strategy: "gossip", Transport: "carrier-pigeon"}, &fail)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown transport: %d, want 400", resp.StatusCode)
	}
	if fail.Error.Code != "invalid_spec" || !strings.Contains(fail.Error.Message, "carrier-pigeon") {
		t.Errorf("unknown-transport envelope: %+v", fail.Error)
	}
	if fail.Error.Retryable {
		t.Error("invalid_spec marked retryable")
	}

	// The metrics rollup names the backend that ran.
	var stats Stats
	if resp := doJSON(t, srv, http.MethodGet, "/v1/metrics", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	u, ok := stats.Transports["sharded"]
	if !ok {
		t.Fatalf("metrics missing sharded transport rollup: %+v", stats.Transports)
	}
	if u.Solves != 1 || u.Deliveries == 0 || u.Messages == 0 {
		t.Errorf("sharded usage %+v, want 1 solve with traffic", u)
	}
}

// TestHTTPConcurrentShardedSolves exercises the sharded backend from many
// goroutines at once (distinct specs, so singleflight cannot collapse
// them) — the race detector is the assertion.
func TestHTTPConcurrentShardedSolves(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	var ids [2]string
	for i := range ids {
		g := testDigraph(t, 16, uint64(i+1))
		id, err := svc.PutGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	// Raw requests rather than doJSON: its t.Fatal calls are not legal off
	// the test goroutine.
	solve := func(id, strat string) string {
		body := strings.NewReader(`{"strategy":"` + strat + `","transport":"sharded"}`)
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/"+id+"/solve", body)
		if err != nil {
			return strat + ": " + err.Error()
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return strat + ": " + err.Error()
		}
		defer resp.Body.Close()
		var sj SolveJSON
		if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
			return strat + ": " + err.Error()
		}
		if resp.StatusCode != http.StatusOK {
			return strat + ": status " + resp.Status
		}
		if sj.Transport != "sharded" {
			return strat + ": transport " + sj.Transport
		}
		return ""
	}

	strategies := []string{"gossip", "quantum", "classical-search", "dolev"}
	var wg sync.WaitGroup
	errs := make(chan string, len(ids)*len(strategies))
	for _, id := range ids {
		for _, strat := range strategies {
			wg.Add(1)
			go func(id, strat string) {
				defer wg.Done()
				if e := solve(id, strat); e != "" {
					errs <- e
				}
			}(id, strat)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
