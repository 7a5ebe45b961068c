package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"qclique/internal/experiments"
)

// TestSuiteCoversBaseline holds the catalog to the committed baseline:
// every baseline entry must still be produced by the full suite, and the
// only suite entries allowed without a baseline are the transport sweep's
// GOMAXPROCS-only rungs. A renamed or dropped catalog entry then fails
// here in seconds instead of in the multi-minute gate.
func TestSuiteCoversBaseline(t *testing.T) {
	baseline, err := loadReport("../../BENCH_1.json")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := experiments.Suite(false)
	if err != nil {
		t.Fatal(err)
	}
	inSuite := make(map[string]bool, len(suite))
	for _, b := range suite {
		inSuite[b.Name] = true
	}
	inBaseline := make(map[string]bool, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		inBaseline[r.Name] = true
		if !inSuite[r.Name] {
			t.Errorf("baseline entry %s is not produced by experiments.Suite(false)", r.Name)
		}
	}
	hostRung := fmt.Sprintf("/workers=%d", runtime.GOMAXPROCS(0))
	for _, b := range suite {
		if inBaseline[b.Name] {
			continue
		}
		if strings.HasPrefix(b.Name, "E1TransportSweep/") && strings.HasSuffix(b.Name, hostRung) {
			continue
		}
		t.Errorf("suite entry %s has no baseline and is not a GOMAXPROCS-only sweep rung", b.Name)
	}
}

func report(results ...Result) *Report {
	return &Report{Label: "t", Benchmarks: results}
}

func TestCompareReportsPasses(t *testing.T) {
	base := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E2/n=16", NsPerOp: 10, RoundsPerOp: 42},
	)
	cur := report(
		Result{Name: "E1/n=8", NsPerOp: 220, RoundsPerOp: 500}, // 2.2x: inside tolerance
		Result{Name: "E2/n=16", NsPerOp: 5, RoundsPerOp: 42},
	)
	failures, log := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(log) != 2 {
		t.Fatalf("log = %v, want 2 comparisons", log)
	}
}

func TestCompareReportsFailsOnRoundsDeviation(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 501})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the rounds deviation", failures)
	}
}

func TestCompareReportsFailsOnAllocGrowth(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 1000})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 1600})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the allocs/op regression", failures)
	}
	// Improvements and within-tolerance jitter pass.
	cur = report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, AllocsPerOp: 400})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("alloc improvement must pass, got %v", failures)
	}
}

func TestCompareReportsFailsOnSlowdown(t *testing.T) {
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 260, RoundsPerOp: 500})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the ns/op regression", failures)
	}
}

func TestCompareReportsMissingEntries(t *testing.T) {
	base := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E1/n=64", NsPerOp: 1000, RoundsPerOp: 900},
	)
	cur := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 {
		t.Fatalf("full mode must flag the missing baseline entry, got %v", failures)
	}
	if failures, _ := compareReports(base, cur, 2.5, 1.5, true); len(failures) != 0 {
		t.Fatalf("quick (partial) mode must tolerate the missing entry, got %v", failures)
	}
	// A new benchmark with no baseline is a note, not a failure.
	cur2 := report(
		Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500},
		Result{Name: "E1/n=64", NsPerOp: 1000, RoundsPerOp: 900},
		Result{Name: "E13/new", NsPerOp: 1, RoundsPerOp: 1},
	)
	if failures, _ := compareReports(base, cur2, 2.5, 1.5, false); len(failures) != 0 {
		t.Fatalf("new benchmarks must not fail the gate, got %v", failures)
	}
}

func TestCompareReportsFailsOnStretchDeviation(t *testing.T) {
	base := report(Result{Name: "E4APSPApproxQuantum/n=32/eps=0.5", NsPerOp: 100, RoundsPerOp: 500, StretchPerOp: 1.05})
	cur := report(Result{Name: "E4APSPApproxQuantum/n=32/eps=0.5", NsPerOp: 100, RoundsPerOp: 500, StretchPerOp: 1.06})
	failures, _ := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the stretch deviation", failures)
	}
}

func TestApproxWinFailures(t *testing.T) {
	winning := report(
		Result{Name: "E4APSPQuantumNonneg/n=64", RoundsPerOp: 500},
		Result{Name: "E4APSPApproxQuantum/n=64/eps=0.5", RoundsPerOp: 400},
	)
	if failures := approxWinFailures(winning); len(failures) != 0 {
		t.Fatalf("winning report flagged: %v", failures)
	}
	losing := report(
		Result{Name: "E4APSPQuantumNonneg/n=64", RoundsPerOp: 500},
		Result{Name: "E4APSPApproxQuantum/n=64/eps=0.5", RoundsPerOp: 500},
	)
	if failures := approxWinFailures(losing); len(failures) != 1 {
		t.Fatalf("losing report not flagged: %v", failures)
	}
	// Unpaired entries are not an error (quick mode measures a subset).
	unpaired := report(Result{Name: "E4APSPApproxQuantum/n=128/eps=0.5", RoundsPerOp: 9})
	if failures := approxWinFailures(unpaired); len(failures) != 0 {
		t.Fatalf("unpaired entry flagged: %v", failures)
	}
}

func TestTransportParityFailures(t *testing.T) {
	agreeing := report(
		Result{Name: "E1TransportSweep/local/n=32/workers=2", RoundsPerOp: 700},
		Result{Name: "E1TransportSweep/sharded/n=32/workers=2", RoundsPerOp: 700},
	)
	if failures := transportParityFailures(agreeing); len(failures) != 0 {
		t.Fatalf("agreeing report flagged: %v", failures)
	}
	diverged := report(
		Result{Name: "E1TransportSweep/local/n=32/workers=2", RoundsPerOp: 700},
		Result{Name: "E1TransportSweep/sharded/n=32/workers=2", RoundsPerOp: 701},
	)
	if failures := transportParityFailures(diverged); len(failures) != 1 {
		t.Fatalf("diverged report not flagged: %v", failures)
	}
	// Unpaired rungs are not an error (quick mode measures a subset, and a
	// GOMAXPROCS rung may exist on one transport only mid-edit).
	unpaired := report(Result{Name: "E1TransportSweep/local/n=32/workers=4", RoundsPerOp: 700})
	if failures := transportParityFailures(unpaired); len(failures) != 0 {
		t.Fatalf("unpaired entry flagged: %v", failures)
	}
}

func TestReportMarshals(t *testing.T) {
	rep := &Report{
		Label:      "test",
		Benchmarks: []Result{{Name: "E1APSPQuantum/n=8", Iterations: 1, NsPerOp: 1, RoundsPerOp: 2}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].RoundsPerOp != 2 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestCompareReportsWarnsNotFailsOnSlowdownAcrossGomaxprocs(t *testing.T) {
	// A slowdown beyond the limit is only a warning when the two entries
	// were measured under different effective GOMAXPROCS — the wall-clock
	// comparison is apples-to-oranges. Rounds stay a hard gate.
	base := report(Result{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500, Gomaxprocs: 8})
	cur := report(Result{Name: "E1/n=8", NsPerOp: 400, RoundsPerOp: 500, Gomaxprocs: 1})
	failures, log := compareReports(base, cur, 2.5, 1.5, false)
	if len(failures) != 0 {
		t.Fatalf("cross-GOMAXPROCS slowdown must not fail, got %v", failures)
	}
	warned := false
	for _, l := range log {
		if strings.Contains(l, "WARNING") && strings.Contains(l, "GOMAXPROCS") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("expected a GOMAXPROCS warning in the log, got %v", log)
	}

	// Same GOMAXPROCS: the gate stays hard.
	cur = report(Result{Name: "E1/n=8", NsPerOp: 400, RoundsPerOp: 500, Gomaxprocs: 8})
	if failures, _ := compareReports(base, cur, 2.5, 1.5, false); len(failures) != 1 {
		t.Fatalf("same-GOMAXPROCS slowdown must fail, got %v", failures)
	}
}

func TestEntryGomaxprocsFallsBackToHeader(t *testing.T) {
	// Baselines predating the per-entry column resolve through the report
	// header, so a legacy 1-proc baseline still compares warn-free against
	// a 1-proc host and warns against others.
	legacy := &Report{Label: "old", GOMAXPROCS: 4, Benchmarks: []Result{{Name: "E1/n=8", NsPerOp: 100, RoundsPerOp: 500}}}
	if got := entryGomaxprocs(legacy.Benchmarks[0], legacy); got != 4 {
		t.Fatalf("legacy fallback = %d, want 4", got)
	}
	tagged := Result{Name: "E1/n=8", Gomaxprocs: 2}
	if got := entryGomaxprocs(tagged, legacy); got != 2 {
		t.Fatalf("per-entry value = %d, want 2", got)
	}
}
