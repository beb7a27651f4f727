package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// passing returns results every gate passes on, at readings like a 2-vCPU
// VM's: one entry per committed baseline benchmark at its baseline values,
// plus the figures the same-run gates read.
func passing(baseline map[string]baselineEntry) results {
	m := results{}
	for name, base := range baseline {
		m[name] = map[string]float64{"ns/op": 100, "nodes/solve": base.NodesPerSolve, "allocs/op": base.AllocsPerOp}
	}
	set := func(name, unit string, v float64) {
		if m[name] == nil {
			m[name] = map[string]float64{}
		}
		m[name][unit] = v
	}
	set("BenchmarkDatasetSharedCache/off", "solves/session", 300)
	set("BenchmarkDatasetSharedCache/on", "solves/session", 79.7)
	set("BenchmarkDatasetSharedCache/on", "ns/decision", 428.7)
	for _, name := range []string{"BenchmarkTelemetryOverhead", "BenchmarkFlightRecOverhead"} {
		set(name, "ns/decision-off", 300)
		set(name, "ns/decision-on", 310)
		set(name, "overhead-%", 3.3)
		set(name, "overhead-median-%", 4.1)
	}
	set("BenchmarkDecisionTable/table", "ns/op", 46.7)
	set("BenchmarkSessionTableReclaim/entries=512", "ns/op", 200)
	set("BenchmarkSessionTableReclaim/entries=32768", "ns/op", 400)
	set("BenchmarkFleetSim/fleet", "sessions", 100000)
	set("BenchmarkFleetSim/fleet", "ns/decision", 300)
	set("BenchmarkFleetSim/single", "ns/decision", 830)
	return m
}

// TestGatesCanFail shows that every gate passes at readings like HEAD's and
// fails, naming its benchmark, when its own metric crosses its threshold.
func TestGatesCanFail(t *testing.T) {
	baseline, err := readBaseline(filepath.Join("..", "..", "bench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if passed, failed := check(passing(baseline), baseline); len(failed) != 0 || len(passed) != 1+len(gates) {
		t.Fatalf("at passing readings: passed %q, failed %q", passed, failed)
	}
	const pruned, reclaim = "BenchmarkSolverPruned/youtube4k/K8/pruned", "BenchmarkSessionTableReclaim/entries=32768"
	for _, tc := range []struct {
		name  string
		bench string // the benchmark the failure must name
		edit  func(m results)
	}{
		{"nodes/solve at 1.11x baseline", pruned, func(m results) {
			m[pruned]["nodes/solve"] = 1.11 * baseline[pruned].NodesPerSolve
		}},
		{"allocs/op one above baseline", reclaim, func(m results) {
			m[reclaim]["allocs/op"] = baseline[reclaim].AllocsPerOp + 1
		}},
		{"baseline entry missing", "BenchmarkTelemetryRecorder", func(m results) {
			delete(m, "BenchmarkTelemetryRecorder")
		}},
		{"cache ratio 1.9", "BenchmarkDatasetSharedCache", func(m results) {
			m["BenchmarkDatasetSharedCache/on"]["solves/session"] = 300 / 1.9
		}},
		{"telemetry overhead 5.1%", "BenchmarkTelemetryOverhead", func(m results) {
			m["BenchmarkTelemetryOverhead"]["overhead-%"] = 5.1
		}},
		{"flight-recorder overhead 5.1%", "BenchmarkFlightRecOverhead", func(m results) {
			m["BenchmarkFlightRecOverhead"]["overhead-%"] = 5.1
		}},
		{"table speedup 4.9", "BenchmarkDecisionTable", func(m results) {
			m["BenchmarkDecisionTable/table"]["ns/op"] = 428.7 / 4.9
		}},
		{"reclaim ratio 4.1", "BenchmarkSessionTableReclaim", func(m results) {
			m[reclaim]["ns/op"] = 4.1 * 200
		}},
		{"fleet sessions 99999", "BenchmarkFleetSim/fleet", func(m results) {
			m["BenchmarkFleetSim/fleet"]["sessions"] = 99999
		}},
		{"fleet ratio 1.11", "BenchmarkFleetSim", func(m results) {
			m["BenchmarkFleetSim/fleet"]["ns/decision"] = 1.11 * 830
		}},
		{"fleet allocs 1", "BenchmarkFleetSim/fleet", func(m results) {
			m["BenchmarkFleetSim/fleet"]["allocs/op"] = 1
		}},
		{"overhead metrics missing", "BenchmarkFlightRecOverhead", func(m results) {
			delete(m, "BenchmarkFlightRecOverhead")
		}},
		{"fleet arm missing", "BenchmarkFleetSim", func(m results) {
			delete(m["BenchmarkFleetSim/single"], "ns/decision")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := passing(baseline)
			tc.edit(m)
			_, failed := check(m, baseline)
			if len(failed) == 0 {
				t.Fatal("no gate failed")
			}
			for _, msg := range failed {
				if !strings.HasPrefix(msg, tc.bench) {
					t.Errorf("failure %q does not name %s", msg, tc.bench)
				}
			}
		})
	}
}

// TestParse checks the result-line parser: the GOMAXPROCS suffix is
// dropped, every unit is averaged over the lines that reported it, and
// nodes/op is read as nodes/solve.
func TestParse(t *testing.T) {
	m := parse(`goos: linux
BenchmarkSolverPruned/mobile/K3/pruned-2   	     100	      1000 ns/op	         9.000 nodes/op	       0 B/op	       0 allocs/op
BenchmarkSolverPruned/mobile/K3/pruned-2   	     100	      3000 ns/op	        12.00 nodes/op	       0 B/op	       0 allocs/op	 50.00 shared-hit-%
BenchmarkDatasetSharedCache/on-2         	      20	 123456789 ns/op	   79.70 solves/session	  428.7 ns/decision
BenchmarkSessionTableReclaim/entries=512 	   20000	       210.5 ns/op	      96 B/op	       1 allocs/op
PASS
ok  	repro	1.234s
`)
	want := map[string]map[string]float64{
		"BenchmarkSolverPruned/mobile/K3/pruned":   {"ns/op": 2000, "nodes/solve": 10.5, "B/op": 0, "allocs/op": 0, "shared-hit-%": 50},
		"BenchmarkDatasetSharedCache/on":           {"ns/op": 123456789, "solves/session": 79.7, "ns/decision": 428.7},
		"BenchmarkSessionTableReclaim/entries=512": {"ns/op": 210.5, "B/op": 96, "allocs/op": 1},
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(m), len(want), m)
	}
	for name, units := range want {
		if len(m[name]) != len(units) {
			t.Errorf("%s: parsed %v, want %v", name, m[name], units)
		}
		for unit, v := range units {
			if got := m[name][unit]; got != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got, v)
			}
		}
	}
}

// TestBaselineHoldsOnlyBenchmarks keeps thresholds out of the committed
// baseline: every entry names a benchmark, and a field other than
// nodes_per_solve and allocs_per_op is an error.
func TestBaselineHoldsOnlyBenchmarks(t *testing.T) {
	baseline, err := readBaseline(filepath.Join("..", "..", "bench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range baseline {
		if !strings.HasPrefix(name, "Benchmark") {
			t.Errorf("baseline entry %q is not a benchmark", name)
		}
	}
	stale := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(stale, []byte(`{"FleetSim": {"min_sessions": 100000, "allocs_per_op": 0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(stale); err == nil {
		t.Error("a threshold field in the baseline was accepted")
	}
}
