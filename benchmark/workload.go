package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// runConfig is one invocation's settings. small shrinks every population
// (sessions, traces, cohort) so the tests can drive a whole workload in well
// under a second; benchmark runs never set it.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	small   bool
}

// outcome is what a workload measured and checked.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// diag carries the open-loop pacer's validity figures (lag_p50_us,
	// achieved_pct) for the compare mode; nil for workloads without a pacer.
	diag map[string]float64
	// checkErr is the first correctness check that failed.
	checkErr error
}

// workloads maps each BENCHMARK.json workload name to its driver.
var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-steady": runServeSteady,
	"serve-churn":  runServeChurn,
	"fleet":        runFleet,
	"dataset":      runDataset,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// setupRepeats is how many times an untraced run builds its system before
// measuring the last build; setup_s is the median build time, so one slow
// build does not move it.
const setupRepeats = 5

// buildRepeated runs build n times and returns the last instance with the
// median build time. Each instance is released and collected before the
// next build starts, and the last build's own garbage before returning, so
// no build and no timed phase pays for collecting another's garbage (and
// only one instance is ever live).
func buildRepeated[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var inst T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if release != nil {
				release(inst)
			}
			var zero T
			inst = zero
		}
		runtime.GC()
		start := time.Now()
		next, err := build()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		inst = next
	}
	runtime.GC()
	return inst, median(times), nil
}

// setZero records the metrics of layers a workload does not exercise: a
// serving-layer stage on the simulator workloads, say. They read 0 rather
// than being left out, so every run reports the full metric set.
func setZero(values map[string]float64, names ...string) {
	for _, n := range names {
		if _, dup := values[n]; dup {
			panic(fmt.Sprintf("metric %s set twice", n))
		}
		values[n] = 0
	}
}

// runtimeCounters is the slice of runtime.MemStats the per-layer metrics
// difference across a phase.
type runtimeCounters struct {
	mallocs uint64
	numGC   uint32
	pauseNS uint64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{mallocs: m.Mallocs, numGC: m.NumGC, pauseNS: m.PauseTotalNs}
}

// setRuntime records the runtime layer's metrics for a phase of decisions.
func setRuntime(values map[string]float64, before, after runtimeCounters, decisions float64) {
	values["runtime.allocs_per_decision"] = ratio(float64(after.mallocs-before.mallocs), decisions)
	values["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
	values["runtime.gc_pause_ms"] = float64(after.pauseNS-before.pauseNS) / 1e6
}

// setCoreCounters records the decide cascade's traffic: which layer answered
// and how much solver work the misses cost.
func setCoreCounters(v map[string]float64, s core.SolveStats, decisions float64) {
	v["core.table_hit_pct"] = pct(float64(s.TableHits), float64(s.TableLookups))
	v["core.table_fallbacks_per_decision"] = ratio(float64(s.TableFallbacks), decisions)
	v["core.memo_hit_pct"] = pct(float64(s.MemoHits), float64(s.MemoLookups))
	v["core.shared_hit_pct"] = pct(float64(s.SharedHits), float64(s.SharedLookups))
	v["core.solves_per_decision"] = ratio(float64(s.Solves), decisions)
	v["core.nodes_per_solve"] = ratio(float64(s.Nodes), float64(s.Solves))
}

// heapMB collects garbage and returns the heap in use, in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / 1e6
}

// pct is 100·a/b, 0 when b is 0.
func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// firstErr returns the first failed check.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
