package main

import (
	"testing"
	"time"

	"repro/internal/abr"
)

const specFile = "../BENCHMARK.json"

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricReported runs every workload at test scale, untraced and
// traced, and requires each metric BENCHMARK.json lists for the mode, with
// its unit, a passing correctness check, and per-layer counts that repeat
// exactly across two traced runs.
func TestEveryMetricReported(t *testing.T) {
	s := loadTestSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			var traced [2]*record
			for i, c := range []runConfig{{seed: 3, small: true}, {seed: 3, small: true, traced: true},
				{seed: 3, small: true, traced: true}} {
				rec, err := runOnce(s, w, c)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, rec.Result.Correct,
						rec.Result.Attempted, rec.Result.Failed)
				}
				for _, m := range s.metrics(c.traced) {
					got, ok := rec.Result.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("run %d: metric %s = %+v, want unit %q", i, m.Name, got, m.Unit)
					}
				}
				if c.traced {
					traced[i-1] = rec
				}
			}
			for _, m := range s.PerLayer {
				a, b := traced[0].Result.Metrics[m.Name].Value, traced[1].Result.Metrics[m.Name].Value
				if exactMetric(m.Name) && a != b {
					t.Errorf("count %s differs across identical runs: %v vs %v", m.Name, a, b)
				}
			}
		})
	}
}

// TestChurnCounts pins the serve-churn sizing: one session opened and one
// reclaimed per eight decisions, and no decision served from a table.
func TestChurnCounts(t *testing.T) {
	rec, err := runOnce(loadTestSpec(t), "serve-churn", runConfig{seed: 1, small: true, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Result.Metrics
	if m["sessiontable.creates_per_decision"].Value != 0.125 || m["sessiontable.evictions_per_decision"].Value != 0.125 {
		t.Errorf("creates %v, evictions %v per decision; want 0.125 each",
			m["sessiontable.creates_per_decision"].Value, m["sessiontable.evictions_per_decision"].Value)
	}
	if hit := m["core.table_hit_pct"].Value; hit != 0 {
		t.Errorf("table hit rate %v%%, want 0", hit)
	}
}

// fakeTarget serves every request in a fixed busy-waited time and rejects
// every tenth.
type fakeTarget struct {
	service time.Duration
	n       int
}

func (f *fakeTarget) prepare(int) {}
func (f *fakeTarget) finish(int)  {}

func (f *fakeTarget) issue() bool {
	for start := time.Now(); time.Since(start) < f.service; {
	}
	f.n++
	return f.n%10 != 0
}

// TestOpenLoopSeparatesLag drives a fixed 200 µs service at 80% utilization:
// Poisson arrivals then queue behind each other, and that wait must show up
// as generator lag, not as service time.
func TestOpenLoopSeparatesLag(t *testing.T) {
	const n = 500
	s := openLoop(&fakeTarget{service: 200 * time.Microsecond}, n, 4000, 1)
	if s.failed != n/10 {
		t.Errorf("failed = %d, want %d rejections", s.failed, n/10)
	}
	service, lag := sortedCopy(s.service), sortedCopy(s.lag)
	if p50 := nearestRank(service, 0.5); p50 < 200e3 || p50 > 400e3 {
		t.Errorf("service p50 = %d ns, want about 200 µs", p50)
	}
	if p99 := nearestRank(lag, 0.99); p99 < 200e3 {
		t.Errorf("lag p99 = %d ns: queueing behind a 200 µs service should delay arrivals", p99)
	}
	for i := range s.sched {
		if s.sched[i] != s.lag[i]+s.service[i] {
			t.Fatalf("request %d: sched %d != lag %d + service %d", i, s.sched[i], s.lag[i], s.service[i])
		}
	}
}

// TestReplayCheckCatchesCorruption records a served stream on both serve
// workloads, requires the replay check to pass on it, then corrupts one
// response at a time and requires the check to fail.
func TestReplayCheckCatchesCorruption(t *testing.T) {
	for _, churn := range []bool{false, true} {
		sz := steadySizes(runConfig{small: true})
		if churn {
			sz = churnSizes(runConfig{small: true})
		}
		inst, err := buildServe(churn, sz, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		log := inst.target.log
		if err := checkReplay(inst.ladder, log); err != nil {
			t.Fatalf("churn=%v: clean stream rejected: %v", churn, err)
		}
		k := -1
		for i, e := range log {
			if e.rung >= 0 && k < 0 {
				k = i
			}
		}
		corrupt := func(name string, edit func(e *exchange)) {
			bad := append([]exchange(nil), log...)
			edit(&bad[k])
			if checkReplay(inst.ladder, bad) == nil {
				t.Errorf("churn=%v: %s not detected", churn, name)
			}
		}
		corrupt("changed rung", func(e *exchange) { e.rung = (e.rung + 1) % int32(inst.ladder.Len()) })
		corrupt("wait instead of a rung", func(e *exchange) { e.rung, e.wait = abr.NoRung, 0.5 })
		corrupt("skipped segment", func(e *exchange) { e.segment++ })
	}
}

func TestFleetStateComparison(t *testing.T) {
	sz := fleetSizesFor(runConfig{small: true})
	f, err := buildFleet(sz, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, a, _ := f.Session(7)
	b := *a
	if !sameState(a, &b) {
		t.Fatal("a state differs from its copy")
	}
	b.Next++ // the wheel link is not compared
	if !sameState(a, &b) {
		t.Error("states differing only in the wheel link compare unequal")
	}
	b.Buffer += 1e-12
	if sameState(a, &b) {
		t.Error("a buffer differing in its last bits compares equal")
	}
}

func TestDatasetCheckCatchesCorruption(t *testing.T) {
	sz := datasetSizesFor(runConfig{small: true})
	inst, err := buildDataset(sz, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRounds(inst, sz, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDataset(inst, sz, r.metrics); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	r.metrics[0].Switches++
	if checkDataset(inst, sz, r.metrics) == nil {
		t.Error("a changed switch count was not detected")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates past the ends
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := nearestRank([]int64{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("nearest-rank median = %d, want 20", got)
	}
	if got := nearestRank([]int64{10, 20, 30, 40}, 0.99); got != 40 {
		t.Errorf("nearest-rank p99 = %d, want 40", got)
	}
}

// TestQuietWindows pins the quiet-window selection: windows ranked by their
// median, the quietest tenth kept whole, a short tail dropped.
func TestQuietWindows(t *testing.T) {
	var series []int64
	for w := 0; w < 20; w++ {
		level := int64(200)
		if w == 7 || w == 13 {
			level = 100 // the two quietest windows, one outlier each
		}
		series = append(series, level, level+1, level+2, 5000)
	}
	series = append(series, 1, 1) // a tail shorter than a window
	got := quietWindows(series, 4)
	want := []int64{100, 101, 102, 5000, 100, 101, 102, 5000}
	if len(got) != len(want) {
		t.Fatalf("quietWindows kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quietWindows kept %v, want %v", got, want)
		}
	}
	if r := quietRepeat([]int64{9, 3, 7, 5, 1, 8, 2, 6, 4, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}); r != 2 {
		t.Errorf("quietRepeat = %d, want the second fastest of twenty", r)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "decide_p50_us", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"slower by more than the bound", lower, steady, shift(steady, 1.2), "REGRESSION"},
		{"faster in every pair", lower, steady, shift(steady, 0.9), "gain"},
		{"higher is better", metricSpec{Better: "higher", Bound: 0.1}, steady, shift(steady, 0.8), "REGRESSION"},
		{"spread wider than the bound", lower, []float64{50, 150, 100, 60, 140}, steady[:5], "unresolved"},
		{"noisy but every head run better", lower, []float64{150, 200, 250, 300, 400}, steady[:5], "better"},
	} {
		if got := verdict(c.m, c.base, c.head).text; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
