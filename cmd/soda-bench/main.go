// Command soda-bench is the benchmark regression gate. It runs the
// BenchmarkSolver* benchmarks with a fixed iteration budget, runs the shared
// solve-cache and telemetry benchmarks with their own budgets, writes the
// parsed results as JSON (by default to bench-out/bench.json, a gitignored
// directory it creates, so a local run never rewrites a committed report),
// and fails when a deterministic performance property regresses:
//
//	go run ./cmd/soda-bench
//
// Five benchmark gates are enforced:
//
//   - nodes/solve (and nodes/op for the isolated CostModel.Solve benchmarks)
//     must stay within -tolerance (default 10%) of the committed baseline —
//     it is a deterministic property of the pruning logic, so a hermetic CI
//     runner can hold a tight threshold on it.
//   - allocs/op of the gated benchmarks must not exceed the baseline at all
//     (zero tolerance): the solver hot path is allocation-free by design and
//     allocation counts are deterministic, so any increase is a regression.
//     The telemetry micro-benchmarks (counter, histogram, ring append,
//     session recorder) sit in the baseline at 0 allocs/op, so any
//     allocation on the telemetry hot path fails here too.
//   - the dataset-scale shared-cache benchmark's on-arm must need at most
//     1/-min-cache-reduction (default 1/2) of the off-arm's solver
//     invocations per session — the cross-session cache must keep earning
//     its place.
//   - BenchmarkTelemetryOverhead's paired telemetry-on arm must cost at most
//     -max-telemetry-overhead percent (default 5%) more ns/decision than the
//     telemetry-off arm at dataset scale. BenchmarkFlightRecOverhead gets the
//     same treatment under -max-flightrec-overhead: attaching the QoE
//     watchdog to the dataset run must stay within the budget (and at the
//     baseline's allocs/op — zero).
//   - the compiled-table decision path (BenchmarkDecisionTable/table ns/op)
//     must be at least -min-table-speedup times (default 5x) faster than the
//     dataset-scale cached decision path (BenchmarkDatasetSharedCache/on
//     ns/decision) measured in the same run — the steady state the tables
//     replace. Both figures are parallel wall-time per decision on the same
//     runner, so the ratio is portable where raw ns/op is not.
//
// ns/op is recorded in the JSON for human inspection but never gated: it
// moves with runner hardware.
//
// A fleet-simulation gate rides along on the baseline's special FleetSim
// entry (recognised by min_sessions > 0): BenchmarkFleetSim's fleet arm must
// sustain at least min_sessions concurrent virtual players with ns/decision
// at most max_ns_ratio times the single-session arm of the same run
// (-max-fleet-ns-ratio overrides the ratio), at exactly the entry's
// allocs/op — zero. Both arms step the same player (sim.Player), and the
// single arm, sim.Run, compiles its decision table before its timer starts,
// so the ratio compares like with like: it read 0.55–1.08 on a 2-vCPU VM,
// and a fleet event path 30x slower fails it. Like the table-speedup gate, the ratio
// compares two wall-time figures from the same runner, so it is portable
// where raw ns/op is not.
//
// Two control-plane gates ride along:
//
//   - the full control-plane decide path (BenchmarkSessionTableDecide) must
//     stay at 0 allocs/op — the steady state that lets one host carry tens
//     of thousands of sessions.
//   - admission into a full session table must not grow with the shard:
//     BenchmarkSessionTableReclaim's 32768-entry arm may cost at most 4x its
//     512-entry arm's ns/op in the same run, at the baseline's one
//     allocation per op (the Session). A reclaim that scans the shard
//     measures about 90x.
//
// The baseline (bench_baseline.json) maps benchmark name to its gated
// {nodes_per_solve, allocs_per_op}. A baseline entry that no longer appears
// in the benchmark output fails the gate: a silently vanished benchmark must
// not read as a pass. The special LoadgenOpenLoop entry is not a benchmark:
// it holds the open-loop load gate's thresholds, which soda-loadgen
// -baseline applies.
package main

import (
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

// Result is the aggregated measurement of one benchmark across -count runs.
type Result struct {
	Name          string  `json:"name"`
	Samples       int     `json:"samples"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	NodesPerSolve float64 `json:"nodes_per_solve,omitempty"`
	// Shared solve-cache metrics (cache benchmarks only).
	SolvesPerSession float64 `json:"solves_per_session,omitempty"`
	NsPerDecision    float64 `json:"ns_per_decision,omitempty"`
	SharedHitPct     float64 `json:"shared_hit_pct,omitempty"`
	// TableHitPct is the compiled decision-table hit rate (table benchmarks
	// only).
	TableHitPct float64 `json:"table_hit_pct,omitempty"`
	// Sessions is the concurrent virtual-player count a fleet benchmark
	// sustained (BenchmarkFleetSim/fleet only).
	Sessions float64 `json:"sessions,omitempty"`
	// Telemetry-overhead metrics (BenchmarkTelemetryOverhead only).
	NsPerDecisionOff     float64 `json:"ns_per_decision_off,omitempty"`
	NsPerDecisionOn      float64 `json:"ns_per_decision_on,omitempty"`
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct,omitempty"`
	// TelemetryOverheadMedianPct is the median per-pair overhead, reported
	// as a dispersion check next to the gated min-vs-min figure.
	TelemetryOverheadMedianPct float64 `json:"telemetry_overhead_median_pct,omitempty"`
}

// Report is the schema of the JSON artifact.
type Report struct {
	Pattern            string   `json:"pattern"`
	Benchtime          string   `json:"benchtime"`
	Count              int      `json:"count"`
	CachePattern       string   `json:"cache_pattern,omitempty"`
	CacheBenchtime     string   `json:"cache_benchtime,omitempty"`
	TelemetryPattern   string   `json:"telemetry_pattern,omitempty"`
	TelemetryBenchtime string   `json:"telemetry_benchtime,omitempty"`
	TablePattern       string   `json:"table_pattern,omitempty"`
	TableBenchtime     string   `json:"table_benchtime,omitempty"`
	SessionPattern     string   `json:"session_pattern,omitempty"`
	SessionBenchtime   string   `json:"session_benchtime,omitempty"`
	FleetPattern       string   `json:"fleet_pattern,omitempty"`
	FleetBenchtime     string   `json:"fleet_benchtime,omitempty"`
	Benchmarks         []Result `json:"benchmarks"`
}

// BaselineEntry carries the gated metrics of one benchmark — or, on the
// special FleetSim entry, the fleet gate's thresholds.
type BaselineEntry struct {
	NodesPerSolve float64 `json:"nodes_per_solve"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	// MaxP99DecideMs is set only on the LoadgenOpenLoop entry, which holds
	// soda-loadgen's thresholds; a positive value marks it as not a
	// benchmark.
	MaxP99DecideMs float64 `json:"max_p99_decide_ms,omitempty"`
	// MinSessions gates the fleet benchmark's sustained concurrent-session
	// count; a positive value marks the entry as the FleetSim threshold set,
	// not a benchmark.
	MinSessions float64 `json:"min_sessions,omitempty"`
	// MaxNsRatio bounds the fleet arm's ns/decision relative to the
	// single-session arm measured in the same run.
	MaxNsRatio float64 `json:"max_ns_ratio,omitempty"`
}

func main() {
	pattern := flag.String("pattern", "BenchmarkSolver", "benchmark name pattern to run")
	benchtime := flag.String("benchtime", "100x", "fixed per-benchmark iteration budget")
	count := flag.Int("count", 3, "repetitions per benchmark")
	cachePattern := flag.String("cache-pattern", "BenchmarkSharedCacheParallel$|BenchmarkDatasetSharedCache",
		"shared-cache benchmark pattern (empty skips the cache run and its gate)")
	cacheBenchtime := flag.String("cache-benchtime", "20x", "iteration budget for the cache benchmarks")
	minCacheReduction := flag.Float64("min-cache-reduction", 2.0,
		"required off/on solver-invocation ratio of the dataset shared-cache benchmark (0 disables)")
	telemetryPattern := flag.String("telemetry-pattern",
		"BenchmarkTelemetry(Counter|Histogram|RingAppend|Recorder)$|BenchmarkFlightRec(Record|WatchdogObserve)$",
		"zero-alloc telemetry and flight-recorder hot-path benchmark pattern (empty skips the runs and their gates)")
	telemetryBenchtime := flag.String("telemetry-benchtime", "10000x", "iteration budget for the telemetry micro-benchmarks")
	maxTelemetryOverhead := flag.Float64("max-telemetry-overhead", 5.0,
		"allowed telemetry-on vs telemetry-off ns/decision overhead percent of BenchmarkTelemetryOverhead (0 disables)")
	maxFlightRecOverhead := flag.Float64("max-flightrec-overhead", 5.0,
		"allowed watchdog-on vs watchdog-off ns/decision overhead percent of BenchmarkFlightRecOverhead (0 disables)")
	tablePattern := flag.String("table-pattern", "BenchmarkDecisionTable$",
		"compiled decision-table benchmark pattern (empty skips the table run and its gate)")
	tableBenchtime := flag.String("table-benchtime", "50000x", "iteration budget for the decision-table benchmark")
	minTableSpeedup := flag.Float64("min-table-speedup", 5.0,
		"required cached-path ns/decision over table-path ns/op ratio (0 disables)")
	fleetPattern := flag.String("fleet-pattern", "BenchmarkFleetSim$",
		"fleet-simulation benchmark pattern (empty skips the run and its gate)")
	fleetBenchtime := flag.String("fleet-benchtime", "3x", "iteration budget for the fleet benchmark")
	maxFleetNsRatio := flag.Float64("max-fleet-ns-ratio", 0,
		"fleet vs single-session ns/decision ratio gate (0 takes the baseline's FleetSim entry)")
	sessionPattern := flag.String("session-pattern", "BenchmarkSessionTable(Decide|Reclaim)$",
		"control-plane decide and admission benchmark pattern (empty skips the runs and the reclaim gate; their allocs/op floors live in the baseline)")
	sessionBenchtime := flag.String("session-benchtime", "20000x", "iteration budget for the control-plane benchmarks")
	out := flag.String("out", "bench-out/bench.json", "output JSON path (its directory is created)")
	baselinePath := flag.String("baseline", "bench_baseline.json", "committed gated-metric baseline")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative nodes/solve regression")
	flag.Parse()

	raw := runBench(*pattern, *benchtime, *count)
	report := parse(raw)
	report.Pattern = *pattern
	report.Benchtime = *benchtime
	report.Count = *count
	if *cachePattern != "" {
		cacheRaw := runBench(*cachePattern, *cacheBenchtime, 1)
		cacheReport := parse(cacheRaw)
		report.CachePattern = *cachePattern
		report.CacheBenchtime = *cacheBenchtime
		report.Benchmarks = append(report.Benchmarks, cacheReport.Benchmarks...)
	}
	if *telemetryPattern != "" {
		// The micro-benchmarks take the fixed budget; the paired dataset-scale
		// overhead benchmark folds a min-estimator over its own iterations, so
		// a small count suffices.
		telemetryRaw := runBench(*telemetryPattern, *telemetryBenchtime, *count)
		telemetryReport := parse(telemetryRaw)
		report.TelemetryPattern = *telemetryPattern
		report.TelemetryBenchtime = *telemetryBenchtime
		report.Benchmarks = append(report.Benchmarks, telemetryReport.Benchmarks...)
		if *maxTelemetryOverhead > 0 {
			// 30 alternating-order pairs: the gate compares per-arm minima,
			// which need enough runs to shake scheduler noise out of both arms.
			overheadRaw := runBench("BenchmarkTelemetryOverhead$", "30x", 1)
			report.Benchmarks = append(report.Benchmarks, parse(overheadRaw).Benchmarks...)
		}
		if *maxFlightRecOverhead > 0 {
			overheadRaw := runBench("BenchmarkFlightRecOverhead$", "30x", 1)
			report.Benchmarks = append(report.Benchmarks, parse(overheadRaw).Benchmarks...)
		}
	}
	if *tablePattern != "" {
		tableRaw := runBench(*tablePattern, *tableBenchtime, *count)
		report.TablePattern = *tablePattern
		report.TableBenchtime = *tableBenchtime
		report.Benchmarks = append(report.Benchmarks, parse(tableRaw).Benchmarks...)
	}
	if *sessionPattern != "" {
		sessionRaw := runBench(*sessionPattern, *sessionBenchtime, *count)
		report.SessionPattern = *sessionPattern
		report.SessionBenchtime = *sessionBenchtime
		report.Benchmarks = append(report.Benchmarks, parse(sessionRaw).Benchmarks...)
	}
	if *fleetPattern != "" {
		// One run: the gate is a same-run ratio of the two arms, and each fleet
		// iteration advances 100k sessions through seconds of stream time.
		fleetRaw := runBench(*fleetPattern, *fleetBenchtime, 1)
		report.FleetPattern = *fleetPattern
		report.FleetBenchtime = *fleetBenchtime
		report.Benchmarks = append(report.Benchmarks, parse(fleetRaw).Benchmarks...)
	}

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soda-bench: %v\n", err)
		os.Exit(2)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soda-bench: %v\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "soda-bench: %v\n", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "soda-bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("soda-bench: wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))

	failures := gate(report, baseline, *tolerance)
	if *cachePattern != "" && *minCacheReduction > 0 {
		failures = append(failures, gateCacheReduction(report, *minCacheReduction)...)
	}
	if *telemetryPattern != "" && *maxTelemetryOverhead > 0 {
		failures = append(failures, gateOverhead(report, "BenchmarkTelemetryOverhead", "telemetry", *maxTelemetryOverhead)...)
	}
	if *telemetryPattern != "" && *maxFlightRecOverhead > 0 {
		failures = append(failures, gateOverhead(report, "BenchmarkFlightRecOverhead", "flight recorder", *maxFlightRecOverhead)...)
	}
	if *tablePattern != "" && *cachePattern != "" && *minTableSpeedup > 0 {
		failures = append(failures, gateTableSpeedup(report, *minTableSpeedup)...)
	}
	if *fleetPattern != "" {
		failures = append(failures, gateFleetSim(report, baseline, *maxFleetNsRatio)...)
	}
	if *sessionPattern != "" {
		failures = append(failures, gateReclaimScaling(report)...)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "soda-bench: FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("soda-bench: nodes/solve within %.0f%% of baseline and allocs/op unregressed for all %d gated benchmarks\n",
		*tolerance*100, len(baseline))
	if *cachePattern != "" && *minCacheReduction > 0 {
		fmt.Printf("soda-bench: shared cache cuts solver invocations by >= %.1fx\n", *minCacheReduction)
	}
	if *telemetryPattern != "" && *maxTelemetryOverhead > 0 {
		fmt.Printf("soda-bench: telemetry ns/decision overhead within %.1f%%\n", *maxTelemetryOverhead)
	}
	if *telemetryPattern != "" && *maxFlightRecOverhead > 0 {
		fmt.Printf("soda-bench: flight-recorder ns/decision overhead within %.1f%%\n", *maxFlightRecOverhead)
	}
	if *tablePattern != "" && *cachePattern != "" && *minTableSpeedup > 0 {
		fmt.Printf("soda-bench: compiled decision table beats the cached path by >= %.1fx per decision\n", *minTableSpeedup)
	}
	if *sessionPattern != "" {
		fmt.Printf("soda-bench: session admission at capacity within %dx from 512- to 32768-entry shards\n", maxReclaimRatio)
	}
	if *fleetPattern != "" {
		for _, r := range report.Benchmarks {
			if r.Name == "BenchmarkFleetSim/fleet" {
				fmt.Printf("soda-bench: fleet sim sustained %.0f sessions at %.1f ns/decision with %.0f allocs/op\n",
					r.Sessions, r.NsPerDecision, r.AllocsPerOp)
			}
		}
	}
}

// runBench executes one `go test -bench` invocation and returns its output,
// which is also echoed to stdout.
func runBench(pattern, benchtime string, count int) string {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "soda-bench: go test -bench %s: %v\n%s", pattern, err, raw)
		os.Exit(2)
	}
	os.Stdout.Write(raw)
	return string(raw)
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkSolverMonotonic-8   100   31.0 ns/op   24.0 nodes/solve   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse aggregates benchmark output lines into per-name mean results.
func parse(out string) Report {
	type acc struct {
		n                 int
		ns, allocs, nodes float64
		nodeSamples       int
		solves, nsDec     float64
		solveSamples      int
		nsDecSamples      int
		sessions          float64
		sessionSamples    int
		hitPct            float64
		hitSamples        int
		tableHitPct       float64
		tableHitSamples   int
		nsOff, nsOn, ovh  float64
		ovhMedian         float64
		ovhSamples        int
	}
	accs := make(map[string]*acc)
	var order []string
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		a := accs[name]
		if a == nil {
			a = &acc{}
			accs[name] = a
			order = append(order, name)
		}
		a.n++
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
			case "allocs/op":
				a.allocs += v
			case "nodes/solve", "nodes/op":
				a.nodes += v
				a.nodeSamples++
			case "solves/session":
				a.solves += v
				a.solveSamples++
			case "ns/decision":
				a.nsDec += v
				a.nsDecSamples++
			case "sessions":
				a.sessions += v
				a.sessionSamples++
			case "shared-hit-%":
				a.hitPct += v
				a.hitSamples++
			case "table-hit-%":
				a.tableHitPct += v
				a.tableHitSamples++
			case "ns/decision-off":
				a.nsOff += v
			case "ns/decision-on":
				a.nsOn += v
			case "overhead-%":
				a.ovh += v
				a.ovhSamples++
			case "overhead-median-%":
				a.ovhMedian += v
			}
		}
	}
	var rep Report
	for _, name := range order {
		a := accs[name]
		r := Result{
			Name:        name,
			Samples:     a.n,
			NsPerOp:     a.ns / float64(a.n),
			AllocsPerOp: a.allocs / float64(a.n),
		}
		if a.nodeSamples > 0 {
			r.NodesPerSolve = a.nodes / float64(a.nodeSamples)
		}
		if a.solveSamples > 0 {
			r.SolvesPerSession = a.solves / float64(a.solveSamples)
		}
		if a.nsDecSamples > 0 {
			r.NsPerDecision = a.nsDec / float64(a.nsDecSamples)
		}
		if a.sessionSamples > 0 {
			r.Sessions = a.sessions / float64(a.sessionSamples)
		}
		if a.hitSamples > 0 {
			r.SharedHitPct = a.hitPct / float64(a.hitSamples)
		}
		if a.tableHitSamples > 0 {
			r.TableHitPct = a.tableHitPct / float64(a.tableHitSamples)
		}
		if a.ovhSamples > 0 {
			r.NsPerDecisionOff = a.nsOff / float64(a.ovhSamples)
			r.NsPerDecisionOn = a.nsOn / float64(a.ovhSamples)
			r.TelemetryOverheadPct = a.ovh / float64(a.ovhSamples)
			r.TelemetryOverheadMedianPct = a.ovhMedian / float64(a.ovhSamples)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep
}

// readBaseline loads the committed name -> gated-metrics map.
func readBaseline(path string) (map[string]BaselineEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var baseline map[string]BaselineEntry
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return baseline, nil
}

// gate compares measured nodes/solve and allocs/op against the baseline and
// returns the failure messages.
func gate(rep Report, baseline map[string]BaselineEntry, tolerance float64) []string {
	measured := make(map[string]Result)
	for _, r := range rep.Benchmarks {
		measured[r.Name] = r
	}
	var failures []string
	for name, base := range baseline {
		if base.MaxP99DecideMs > 0 || base.MinSessions > 0 {
			// A load-run or fleet threshold entry, not a benchmark;
			// soda-loadgen and gateFleetSim gate those.
			continue
		}
		got, ok := measured[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in benchmark output", name))
			continue
		}
		if got.NodesPerSolve > base.NodesPerSolve*(1+tolerance) {
			failures = append(failures, fmt.Sprintf("%s: nodes/solve %.2f exceeds baseline %.2f by more than %.0f%%",
				name, got.NodesPerSolve, base.NodesPerSolve, tolerance*100))
		}
		// Zero tolerance on allocations: counts are deterministic, so any
		// increase over the committed value is a hot-path regression.
		if got.AllocsPerOp > base.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.2f exceeds baseline %.2f (zero tolerance)",
				name, got.AllocsPerOp, base.AllocsPerOp))
		}
	}
	return failures
}

// gateCacheReduction enforces the dataset-scale shared-cache win: the on-arm
// must perform at most 1/minReduction of the off-arm's solver invocations
// per session.
func gateCacheReduction(rep Report, minReduction float64) []string {
	var off, on *Result
	for i := range rep.Benchmarks {
		switch rep.Benchmarks[i].Name {
		case "BenchmarkDatasetSharedCache/off":
			off = &rep.Benchmarks[i]
		case "BenchmarkDatasetSharedCache/on":
			on = &rep.Benchmarks[i]
		}
	}
	if off == nil || on == nil || off.SolvesPerSession == 0 || on.SolvesPerSession == 0 {
		return []string{"BenchmarkDatasetSharedCache: off/on solves/session metrics missing from benchmark output"}
	}
	ratio := off.SolvesPerSession / on.SolvesPerSession
	if ratio < minReduction {
		return []string{fmt.Sprintf(
			"BenchmarkDatasetSharedCache: shared cache cuts solves/session only %.2fx (%.1f -> %.1f), need >= %.1fx",
			ratio, off.SolvesPerSession, on.SolvesPerSession, minReduction)}
	}
	return nil
}

// gateTableSpeedup enforces the compiled-table win: the table decision path
// (BenchmarkDecisionTable/table, warm, parallel) must cost at most
// 1/minSpeedup of the dataset-scale cached decision path
// (BenchmarkDatasetSharedCache/on) per decision. Both figures are measured
// in this run on this runner — wall time per decision under parallel load —
// so the ratio compares like with like even though absolute ns/op moves
// with hardware.
func gateTableSpeedup(rep Report, minSpeedup float64) []string {
	var cached, table *Result
	for i := range rep.Benchmarks {
		switch rep.Benchmarks[i].Name {
		case "BenchmarkDatasetSharedCache/on":
			cached = &rep.Benchmarks[i]
		case "BenchmarkDecisionTable/table":
			table = &rep.Benchmarks[i]
		}
	}
	if cached == nil || cached.NsPerDecision == 0 || table == nil || table.NsPerOp == 0 {
		return []string{"BenchmarkDecisionTable: cached ns/decision or table ns/op missing from benchmark output"}
	}
	speedup := cached.NsPerDecision / table.NsPerOp
	if speedup < minSpeedup {
		return []string{fmt.Sprintf(
			"BenchmarkDecisionTable: table path only %.2fx faster than the cached path (%.0f -> %.1f ns), need >= %.1fx",
			speedup, cached.NsPerDecision, table.NsPerOp, minSpeedup)}
	}
	return nil
}

// maxReclaimRatio bounds BenchmarkSessionTableReclaim's 32768-entry arm over
// its 512-entry arm. A reclaim that does not scan the shard measures
// 1.5–2.6x (the larger map and list miss the caches more often); one that
// scans it measures about 90x.
const maxReclaimRatio = 4

// gateReclaimScaling enforces constant-time admission at capacity: creating
// a session in a full 32768-entry shard (BenchmarkSessionTableReclaim) may
// cost at most maxReclaimRatio times what it costs in a full 512-entry
// shard, measured in the same run. Both arms reclaim an expired entry per
// op, so a reclaim whose cost follows the shard's size fails here.
func gateReclaimScaling(rep Report) []string {
	const small, large = "BenchmarkSessionTableReclaim/entries=512", "BenchmarkSessionTableReclaim/entries=32768"
	var s, l *Result
	for i := range rep.Benchmarks {
		switch rep.Benchmarks[i].Name {
		case small:
			s = &rep.Benchmarks[i]
		case large:
			l = &rep.Benchmarks[i]
		}
	}
	if s == nil || s.NsPerOp == 0 || l == nil || l.NsPerOp == 0 {
		return []string{"BenchmarkSessionTableReclaim: 512- or 32768-entry ns/op missing from benchmark output"}
	}
	if ratio := l.NsPerOp / s.NsPerOp; ratio > maxReclaimRatio {
		return []string{fmt.Sprintf(
			"BenchmarkSessionTableReclaim: admission into a full 32768-entry shard costs %.1fx a 512-entry one (%.0f vs %.0f ns/op), budget %dx",
			ratio, l.NsPerOp, s.NsPerOp, maxReclaimRatio)}
	}
	return nil
}

// fleetBaselineName is the baseline entry carrying the fleet-sim thresholds.
const fleetBaselineName = "FleetSim"

// gateFleetSim enforces the fleet-simulation budget: the fleet arm must
// sustain at least the baseline's min_sessions concurrent virtual players,
// cost at most max_ns_ratio times the single-session arm's ns/decision in
// the same run (ratioOverride > 0 replaces the baseline ratio), and stay at
// the baseline's allocs/op — zero, since steady-state garbage is what caps
// how many sessions one host can carry.
func gateFleetSim(rep Report, baseline map[string]BaselineEntry, ratioOverride float64) []string {
	thresholds, ok := baseline[fleetBaselineName]
	if !ok {
		return []string{fmt.Sprintf("%s: threshold entry missing from baseline", fleetBaselineName)}
	}
	maxRatio := thresholds.MaxNsRatio
	if ratioOverride > 0 {
		maxRatio = ratioOverride
	}
	var single, fleet *Result
	for i := range rep.Benchmarks {
		switch rep.Benchmarks[i].Name {
		case "BenchmarkFleetSim/single":
			single = &rep.Benchmarks[i]
		case "BenchmarkFleetSim/fleet":
			fleet = &rep.Benchmarks[i]
		}
	}
	if single == nil || single.NsPerDecision == 0 || fleet == nil || fleet.NsPerDecision == 0 {
		return []string{"BenchmarkFleetSim: single/fleet ns/decision missing from benchmark output"}
	}
	var failures []string
	if fleet.Sessions < thresholds.MinSessions {
		failures = append(failures, fmt.Sprintf(
			"BenchmarkFleetSim/fleet: sustained %.0f concurrent sessions, need >= %.0f",
			fleet.Sessions, thresholds.MinSessions))
	}
	if maxRatio > 0 {
		if ratio := fleet.NsPerDecision / single.NsPerDecision; ratio > maxRatio {
			failures = append(failures, fmt.Sprintf(
				"BenchmarkFleetSim: fleet path costs %.2fx the single-session path per decision (%.1f vs %.1f ns), budget %.2fx",
				ratio, fleet.NsPerDecision, single.NsPerDecision, maxRatio))
		}
	}
	if fleet.AllocsPerOp > thresholds.AllocsPerOp {
		failures = append(failures, fmt.Sprintf(
			"BenchmarkFleetSim/fleet: allocs/op %.2f exceeds baseline %.2f (zero tolerance)",
			fleet.AllocsPerOp, thresholds.AllocsPerOp))
	}
	return failures
}

// gateOverhead enforces an instrumentation cost budget: at dataset scale,
// attaching the named observer (the telemetry collector, the flight
// recorder's watchdog) must cost at most maxPct percent ns/decision over the
// bare loop. Both overhead benchmarks alternate paired arms and compare
// per-arm minimum ns/decision, so scheduler stalls and GC pauses — which
// only ever inflate a sample — cannot move the gated figure.
func gateOverhead(rep Report, name, what string, maxPct float64) []string {
	for _, r := range rep.Benchmarks {
		if r.Name != name {
			continue
		}
		if r.NsPerDecisionOff <= 0 || r.NsPerDecisionOn <= 0 {
			return []string{name + ": ns/decision-off / ns/decision-on metrics missing from benchmark output"}
		}
		if r.TelemetryOverheadPct > maxPct {
			return []string{fmt.Sprintf(
				"%s: %s adds %.2f%% ns/decision (%.0f -> %.0f), budget %.1f%%",
				name, what, r.TelemetryOverheadPct, r.NsPerDecisionOff, r.NsPerDecisionOn, maxPct)}
		}
		return nil
	}
	return []string{name + ": missing from benchmark output"}
}
