// Command soda-bench is the benchmark regression gate. It runs one fixed
// table of `go test -bench` invocations, each with its own iteration budget,
// parses every result line into per-benchmark means, writes them as JSON (by
// default to bench-out/bench.json, a gitignored directory it creates, so a
// local run never rewrites a committed report), and fails when a gate fails:
//
//	go run ./cmd/soda-bench [-out bench-out/bench.json] [-baseline bench_baseline.json]
//
// The gates, each with its threshold as a constant beside it:
//
//   - Baseline (bench_baseline.json maps a benchmark to its nodes/solve and
//     allocs/op): nodes/solve (nodes/op for the isolated CostModel.Solve
//     benchmarks) at most 10% above the baseline, a deterministic property
//     of the pruning logic; allocs/op never above it, since allocation
//     counts are deterministic and the solver, telemetry, flight-recorder,
//     decision-table, session decide and fleet event hot paths sit at 0; and
//     a baseline entry missing from the output fails, so a vanished
//     benchmark does not read as a pass.
//   - BenchmarkDatasetSharedCache: the shared cache must cut solves/session
//     at least 2x at dataset scale.
//   - BenchmarkTelemetryOverhead and BenchmarkFlightRecOverhead: attaching
//     the telemetry collector, or the QoE watchdog, to a dataset run may add
//     at most 5% ns/decision, compared by each arm's minimum over paired,
//     alternating runs.
//   - BenchmarkDecisionTable: the compiled-table path (table ns/op) must be
//     at least 5x faster per decision than the dataset-scale cached path
//     (BenchmarkDatasetSharedCache/on ns/decision).
//   - BenchmarkSessionTableReclaim: admission into a full 32768-entry shard
//     may cost at most 4x a 512-entry one; a reclaim that scans the shard
//     measures about 90x.
//   - BenchmarkFleetSim: the fleet arm must sustain at least 100000
//     concurrent sessions at no more than 1.1x the single-session arm's
//     ns/decision. Both arms step sim.Player, and the single arm compiles its
//     decision table before its timer starts, so a fleet event path 30x
//     slower fails.
//
// Raw ns/op is recorded but gated only inside same-run ratios: it moves with
// the runner's hardware, and a ratio of two figures from one run does not.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchRun is one `go test -bench` invocation.
type benchRun struct {
	Pattern   string `json:"pattern"`
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
}

// runs is what soda-bench measures. The overhead and fleet benchmarks run
// once: each folds a same-run comparison over its own iterations.
var runs = []benchRun{
	{"BenchmarkSolver", "100x", 3},
	{"BenchmarkDatasetSharedCache", "20x", 1},
	{"BenchmarkTelemetry(Counter|Histogram|RingAppend|Recorder)$|BenchmarkFlightRec(Record|WatchdogObserve)$", "10000x", 3},
	{"BenchmarkTelemetryOverhead$", "30x", 1},
	{"BenchmarkFlightRecOverhead$", "30x", 1},
	{"BenchmarkDecisionTable$", "50000x", 3},
	{"BenchmarkSessionTable(Decide|Reclaim)$", "20000x", 3},
	{"BenchmarkFleetSim$", "3x", 1},
}

// results maps a benchmark name to the mean of each unit it reported.
type results map[string]map[string]float64

// report is the schema of the JSON artifact.
type report struct {
	Runs       []benchRun `json:"runs"`
	Benchmarks results    `json:"benchmarks"`
}

// baselineEntry is one benchmark's committed gated metrics.
type baselineEntry struct {
	NodesPerSolve float64 `json:"nodes_per_solve"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

func main() {
	out := flag.String("out", "bench-out/bench.json", "output JSON path (its directory is created)")
	baselinePath := flag.String("baseline", "bench_baseline.json", "committed gated-metric baseline")
	flag.Parse()

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var raw strings.Builder
	for _, r := range runs {
		raw.WriteString(runBench(r))
	}
	rep := report{Runs: runs, Benchmarks: parse(raw.String())}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("soda-bench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))

	passed, failed := check(rep.Benchmarks, baseline)
	for _, msg := range passed {
		fmt.Printf("soda-bench: ok   %s\n", msg)
	}
	for _, msg := range failed {
		fmt.Fprintf(os.Stderr, "soda-bench: FAIL %s\n", msg)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "soda-bench: %v\n", err)
	os.Exit(2)
}

// runBench executes one `go test -bench` invocation and returns its output,
// which is also echoed to stdout.
func runBench(r benchRun) string {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", r.Pattern, "-benchtime", r.Benchtime,
		"-count", strconv.Itoa(r.Count), ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("go test -bench %s: %v\n%s", r.Pattern, err, raw))
	}
	os.Stdout.Write(raw)
	return string(raw)
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkSolverMonotonic-8   100   31.0 ns/op   24.0 nodes/solve   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse averages every value/unit pair over the result lines of each
// benchmark that reported it. The isolated solver benchmarks report
// nodes/op, which is read as nodes/solve.
func parse(out string) results {
	sums := make(map[string]map[string]float64)
	counts := make(map[string]map[string]int)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		if sums[name] == nil {
			sums[name] = make(map[string]float64)
			counts[name] = make(map[string]int)
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if unit == "nodes/op" {
				unit = "nodes/solve"
			}
			sums[name][unit] += v
			counts[name][unit]++
		}
	}
	for name, units := range sums {
		for unit := range units {
			units[unit] /= float64(counts[name][unit])
		}
	}
	return sums
}

// positive returns a benchmark's mean for unit and whether it was reported
// and positive, as every denominator and ns figure must be.
func (m results) positive(name, unit string) (float64, bool) {
	v, ok := m[name][unit]
	return v, ok && v > 0
}

// readBaseline loads the committed name -> gated-metrics map.
func readBaseline(path string) (map[string]baselineEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var baseline map[string]baselineEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&baseline); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return baseline, nil
}

// nodesTolerance is the allowed relative nodes/solve regression.
const nodesTolerance = 0.10

// gateBaseline compares measured nodes/solve and allocs/op against the
// baseline and returns the failure messages. Allocations get zero
// tolerance: counts are deterministic, so any increase is a hot-path
// regression.
func gateBaseline(m results, baseline map[string]baselineEntry) []string {
	var failures []string
	for name, base := range baseline {
		got, ok := m[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in benchmark output", name))
			continue
		}
		if got["nodes/solve"] > base.NodesPerSolve*(1+nodesTolerance) {
			failures = append(failures, fmt.Sprintf("%s: nodes/solve %.2f exceeds baseline %.2f by more than %.0f%%",
				name, got["nodes/solve"], base.NodesPerSolve, nodesTolerance*100))
		}
		if got["allocs/op"] > base.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.2f exceeds baseline %.2f (zero tolerance)",
				name, got["allocs/op"], base.AllocsPerOp))
		}
	}
	return failures
}

// check runs every gate over the parsed results and returns the readings of
// the gates that passed and the failures, sorted.
func check(m results, baseline map[string]baselineEntry) (passed, failed []string) {
	failed = gateBaseline(m, baseline)
	if len(failed) == 0 {
		passed = append(passed, fmt.Sprintf("nodes/solve within %.0f%% of baseline and allocs/op unregressed for all %d baseline benchmarks",
			nodesTolerance*100, len(baseline)))
	}
	for _, g := range gates {
		if msg, ok := g(m); ok {
			passed = append(passed, msg)
		} else {
			failed = append(failed, msg)
		}
	}
	sort.Strings(failed)
	return passed, failed
}

// gates are the same-run gates over the parsed results. Each returns its
// reading, naming the benchmark it gates, and whether it passed.
var gates = []func(results) (string, bool){
	gateCacheReduction,
	overheadGate("BenchmarkTelemetryOverhead", "telemetry"),
	overheadGate("BenchmarkFlightRecOverhead", "flight recorder"),
	gateTableSpeedup,
	gateReclaimScaling,
	gateFleetSessions,
	gateFleetRatio,
}

// minCacheReduction is the off/on solves/session ratio the dataset-scale
// shared cache must reach: the cache must keep earning its place.
const minCacheReduction = 2.0

func gateCacheReduction(m results) (string, bool) {
	const name = "BenchmarkDatasetSharedCache"
	off, okOff := m.positive(name+"/off", "solves/session")
	on, okOn := m.positive(name+"/on", "solves/session")
	if !okOff || !okOn {
		return name + ": off/on solves/session metrics missing from benchmark output", false
	}
	ratio := off / on
	return fmt.Sprintf("%s: shared cache cuts solves/session %.2fx (%.1f -> %.1f), need >= %.1fx",
		name, ratio, off, on, minCacheReduction), ratio >= minCacheReduction
}

// maxOverheadPct is the ns/decision budget, in percent, for attaching an
// observer to a dataset run.
const maxOverheadPct = 5.0

// overheadGate gates one paired overhead benchmark. Its arms alternate
// inside one timed loop and the gated overhead-% compares per-arm minima, so
// scheduler stalls and GC pauses, which only ever inflate a sample, cannot
// move it; overhead-median-% is reported beside it as a dispersion check.
func overheadGate(name, what string) func(results) (string, bool) {
	return func(m results) (string, bool) {
		pct, okPct := m[name]["overhead-%"]
		off, okOff := m.positive(name, "ns/decision-off")
		on, okOn := m.positive(name, "ns/decision-on")
		if !okPct || !okOff || !okOn {
			return name + ": ns/decision-off / ns/decision-on / overhead-% metrics missing from benchmark output", false
		}
		return fmt.Sprintf("%s: %s adds %.2f%% ns/decision by minimum (%.0f -> %.0f; median pair %.2f%%), budget %.1f%%",
			name, what, pct, off, on, m[name]["overhead-median-%"], maxOverheadPct), pct <= maxOverheadPct
	}
}

// minTableSpeedup is how many times faster per decision the compiled-table
// path must be than the dataset-scale cached path it replaces. Both are
// parallel wall time per decision on the same runner, so the ratio is
// portable where raw ns/op is not.
const minTableSpeedup = 5.0

func gateTableSpeedup(m results) (string, bool) {
	cached, okCached := m.positive("BenchmarkDatasetSharedCache/on", "ns/decision")
	table, okTable := m.positive("BenchmarkDecisionTable/table", "ns/op")
	if !okCached || !okTable {
		return "BenchmarkDecisionTable: cached ns/decision or table ns/op missing from benchmark output", false
	}
	speedup := cached / table
	return fmt.Sprintf("BenchmarkDecisionTable: table path %.2fx faster than the cached path (%.0f -> %.1f ns), need >= %.1fx",
		speedup, cached, table, minTableSpeedup), speedup >= minTableSpeedup
}

// maxReclaimRatio bounds BenchmarkSessionTableReclaim's 32768-entry arm over
// its 512-entry arm. Both arms reclaim an expired entry per op. A reclaim
// that does not scan the shard measures 1.5–2.6x (the larger map and list
// miss the caches more often); one that scans it measures about 90x.
const maxReclaimRatio = 4.0

func gateReclaimScaling(m results) (string, bool) {
	const name = "BenchmarkSessionTableReclaim"
	small, okSmall := m.positive(name+"/entries=512", "ns/op")
	large, okLarge := m.positive(name+"/entries=32768", "ns/op")
	if !okSmall || !okLarge {
		return name + ": 512- or 32768-entry ns/op missing from benchmark output", false
	}
	ratio := large / small
	return fmt.Sprintf("%s: admission into a full 32768-entry shard costs %.2fx a 512-entry one (%.0f vs %.0f ns/op), budget %.0fx",
		name, ratio, large, small, maxReclaimRatio), ratio <= maxReclaimRatio
}

// minFleetSessions is the concurrent virtual-player count the fleet arm must
// sustain on one host.
const minFleetSessions = 100000

func gateFleetSessions(m results) (string, bool) {
	const name = "BenchmarkFleetSim/fleet"
	sessions, ok := m.positive(name, "sessions")
	if !ok {
		return name + ": sessions missing from benchmark output", false
	}
	return fmt.Sprintf("%s: sustained %.0f concurrent sessions, need >= %d",
		name, sessions, minFleetSessions), sessions >= minFleetSessions
}

// maxFleetNsRatio bounds the fleet arm's ns/decision over the single-session
// arm's in the same run.
const maxFleetNsRatio = 1.1

func gateFleetRatio(m results) (string, bool) {
	const name = "BenchmarkFleetSim"
	single, okSingle := m.positive(name+"/single", "ns/decision")
	fleet, okFleet := m.positive(name+"/fleet", "ns/decision")
	if !okSingle || !okFleet {
		return name + ": single/fleet ns/decision missing from benchmark output", false
	}
	ratio := fleet / single
	return fmt.Sprintf("%s: fleet path costs %.2fx the single-session path per decision (%.1f vs %.1f ns), budget %.2fx",
		name, ratio, fleet, single, maxFleetNsRatio), ratio <= maxFleetNsRatio
}
