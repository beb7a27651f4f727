package core

import (
	"math"
	"testing"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

func TestBinomialTable(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{6, 3, 20},
		{10, 5, 252},
		{52, 5, 2598960},
		// Out-of-range k.
		{5, -1, 0},
		{4, 7, 0},
		{-1, 0, 0}, // k=0 > n=-1
		// Large but representable throughout the running product.
		{40, 20, 137846528820},
		// Overflow-prone n: the running product overflows int64 and must
		// saturate instead of wrapping to garbage (or negative) counts.
		{70, 35, math.MaxInt},
		{200, 100, math.MaxInt},
		{1 << 40, 3, math.MaxInt},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	// Symmetry on a non-trivial diagonal.
	if a, b := binomial(30, 12), binomial(30, 18); a != b {
		t.Errorf("C(30,12)=%d != C(30,18)=%d", a, b)
	}
}

func TestCountMonotonicSequencesTable(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{6, 5, 252},               // YouTube4K at K=5: C(10,5)
		{4, 5, 56},                // Mobile at K=5: C(8,5)
		{6, 1, 6},                 // K=1 is just the rung count
		{1, 5, 1},                 // single-rung ladder: only the flat sequence
		{6, 0, 1},                 // empty plan
		{15, 8, 319770},           // production ladder at K=8: C(22,8)
		{1 << 30, 4, math.MaxInt}, // saturates, does not wrap
	}
	for _, c := range cases {
		if got := countMonotonicSequences(c.n, c.k); got != c.want {
			t.Errorf("countMonotonicSequences(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestOmegaAtClamping(t *testing.T) {
	omegas := []units.Mbps{10, 20, 30}
	cases := []struct {
		depth int
		want  units.Mbps
	}{
		{0, units.Mbps(10)},
		{1, units.Mbps(20)},
		{2, units.Mbps(30)},
		{3, units.Mbps(30)},   // past the forecast: clamp to the last entry
		{100, units.Mbps(30)}, // far past: still the last entry
	}
	for _, c := range cases {
		if got := omegaAt(omegas, c.depth); got != c.want {
			t.Errorf("omegaAt(%v, %d) = %v, want %v", omegas, c.depth, got, c.want)
		}
	}
	single := []units.Mbps{7.5}
	for _, depth := range []int{0, 1, 9} {
		if got := omegaAt(single, depth); got != 7.5 {
			t.Errorf("omegaAt(single, %d) = %v, want 7.5", depth, got)
		}
	}
}

func TestSolverConfigKnobsValidate(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.MemoQuantum = -0.5 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad solver config %d accepted", i)
		}
	}
	good := []Config{
		mut(func(c *Config) { c.SolveMemoSize = 0 }), // deprecated, ignored
		mut(func(c *Config) { c.MemoQuantum = 0 }),   // exact planning
		mut(func(c *Config) { c.DisablePruning = true }),
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good solver config %d rejected: %v", i, err)
		}
	}
}

// TestPruningNodeReduction pins the headline claim: at K=5 on the YouTube4K
// ladder the branch-and-bound solver evaluates at least 3x fewer nodes than
// the unpruned monotone enumeration while committing identical decisions.
func TestPruningNodeReduction(t *testing.T) {
	cfg := DefaultConfig()
	offCfg := cfg
	offCfg.DisablePruning = true
	on := NewCostModel(cfg, video.YouTube4K(), units.Seconds(20))
	off := NewCostModel(offCfg, video.YouTube4K(), units.Seconds(20))
	rng := newSplitMix(7)
	const k, samples = 5, 3000
	maxRung := on.ladder.Len() - 1
	for i := 0; i < samples; i++ {
		x0 := units.Seconds(rng.float() * 20)
		prev := int(rng.float() * 6)
		if prev > 5 {
			prev = 5
		}
		omegas := []units.Mbps{units.Mbps(0.75 + rng.float()*119)}
		a := on.searchMonotonic(omegas, x0, prev, k, maxRung)
		b := off.searchMonotonic(omegas, x0, prev, k, maxRung)
		if a.rung != b.rung || a.obj != b.obj {
			t.Fatalf("sample %d: pruned (%d, %v) != unpruned (%d, %v)",
				i, a.rung, a.obj, b.rung, b.obj)
		}
	}
	pruned, plain := on.SolveStats(), off.SolveStats()
	if pruned.Solves != samples || plain.Solves != samples {
		t.Fatalf("solve counters: %d / %d", pruned.Solves, plain.Solves)
	}
	ratio := float64(plain.Nodes) / float64(pruned.Nodes)
	t.Logf("K=5 nodes/solve: pruned %.1f vs unpruned %.1f (%.2fx)",
		float64(pruned.Nodes)/samples, float64(plain.Nodes)/samples, ratio)
	if ratio < 3 {
		t.Errorf("pruning reduced nodes only %.2fx, want >= 3x", ratio)
	}
	if pruned.Pruned == 0 {
		t.Error("pruned counter never incremented")
	}
	if plain.Pruned != 0 {
		t.Errorf("pruning-disabled solver reported %d cuts", plain.Pruned)
	}
}

// TestSolveStatsReset checks the counters zero cleanly.
func TestSolveStatsReset(t *testing.T) {
	m := NewCostModel(DefaultConfig(), video.Mobile(), units.Seconds(20))
	m.searchMonotonic([]units.Mbps{8}, units.Seconds(10), 2, 4, 3)
	if st := m.SolveStats(); st.Solves == 0 || st.Nodes == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
	m.ResetSolveStats()
	if st := m.SolveStats(); st != (SolveStats{}) {
		t.Errorf("stats after reset: %+v", st)
	}
}

// TestSolveStatsMonotoneAcrossCapChange pins that a buffer-cap change, which
// rebuilds the controller's cost model, carries the solver counters across:
// SolveStats only ever goes up, so a harness's per-decision Delta cannot
// wrap around.
func TestSolveStatsMonotoneAcrossCapChange(t *testing.T) {
	ladder := video.YouTube4K()
	c := New(DefaultConfig(), ladder)
	var prev SolveStats
	for i, capSeconds := range []float64{30, 30, 30, 20, 20, 30} {
		// A fresh throughput every step, so every decision solves.
		omega := units.Mbps(17.3 + 0.37*float64(i))
		c.Decide(&abr.Context{
			Buffer:    units.Seconds(8),
			BufferCap: units.Seconds(capSeconds),
			PrevRung:  2,
			Ladder:    ladder,
			Predict:   func(units.Seconds) units.Mbps { return omega },
		})
		st := c.SolveStats()
		if st.Solves <= prev.Solves || st.Nodes <= prev.Nodes {
			t.Fatalf("step %d (cap %g s): counters went from %+v to %+v", i, capSeconds, prev, st)
		}
		prev = st
	}
}

// TestDecideSteadyStateZeroAlloc pins the allocation-free steady-state solve
// path at K=5: after warmup, Decide must not allocate.
func TestDecideSteadyStateZeroAlloc(t *testing.T) {
	c := New(DefaultConfig(), video.YouTube4K())
	ctx := &abr.Context{
		Buffer:    units.Seconds(11),
		BufferCap: units.Seconds(20),
		PrevRung:  3,
		Ladder:    video.YouTube4K(),
		Predict:   func(units.Seconds) units.Mbps { return units.Mbps(30) },
	}
	c.Decide(ctx) // warmup: grows the solver scratch once
	allocs := testing.AllocsPerRun(200, func() {
		c.Decide(ctx)
	})
	if allocs != 0 {
		t.Errorf("Decide allocates %.1f times per op in steady state", allocs)
	}
}

// TestPrewarmZeroAllocFirstDecide pins the Prewarm contract: after Prewarm
// at the session's buffer cap, even the very first Decide is allocation-free
// — the cost model and solver scratch, Decide's only lazy allocations, are
// already bound. The fleet simulator relies on this to keep its decide path
// at zero allocs from the first event.
func TestPrewarmZeroAllocFirstDecide(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, video.YouTube4K())
	c.Prewarm(units.Seconds(20))
	ctx := &abr.Context{
		Buffer:    units.Seconds(11),
		BufferCap: units.Seconds(20),
		PrevRung:  3,
		Ladder:    video.YouTube4K(),
		Predict:   func(units.Seconds) units.Mbps { return units.Mbps(30) },
	}
	allocs := testing.AllocsPerRun(1, func() {
		c.Decide(ctx)
	})
	if allocs != 0 {
		t.Errorf("first Decide after Prewarm allocates %.1f times per op", allocs)
	}
	// Prewarm must bind the same model a cold Decide would: decisions match
	// a never-prewarmed twin across a spread of states.
	cold := New(cfg, video.YouTube4K())
	for i := 0; i < 50; i++ {
		s := &abr.Context{
			Buffer:    units.Seconds(float64(i%20) + 0.5),
			BufferCap: units.Seconds(20),
			PrevRung:  i%6 - 1,
			Ladder:    video.YouTube4K(),
			Predict:   func(units.Seconds) units.Mbps { return units.Mbps(1 + float64(i)) },
		}
		if a, b := c.Decide(s), cold.Decide(s); a != b {
			t.Fatalf("state %d: prewarmed %+v != cold %+v", i, a, b)
		}
	}
}

// TestDecideMemo checks what a session's repeated decisions rest on now that
// Decide keeps no memo of its own: states within one quantum coalesce into
// shared-cache hits with no further solve and the exact planner's rung at the
// rounded state, Reset changes nothing, and a buffer cap change is a new
// planning problem that the old cap's cache entries never answer.
func TestDecideMemo(t *testing.T) {
	ladder := video.YouTube4K()
	cfg := DefaultConfig()
	cfg.SharedCache = NewSolveCache(1 << 10)
	c := New(cfg, ladder)
	exactCfg := DefaultConfig()
	exactCfg.MemoQuantum = 0

	ctx := func(buf, omega, capSeconds float64) *abr.Context {
		return &abr.Context{
			Buffer: units.Seconds(buf), BufferCap: units.Seconds(capSeconds), PrevRung: 4, Ladder: ladder,
			Predict: func(units.Seconds) units.Mbps { return units.Mbps(omega) },
		}
	}
	q := cfg.MemoQuantum
	want := New(exactCfg, ladder).Decide(ctx(float64(quantize(units.Seconds(10), q)), float64(quantize(units.Mbps(24), q)), 20))

	// A jittery trajectory whose buffers and predictions all round to the
	// same state: one solve, then every decision is a shared-cache hit.
	rng := newSplitMix(99)
	var first SolveStats
	for i := 0; i < 400; i++ {
		buf := 10 + rng.float()*0.004 // all round to 10.00
		omega := 24 + rng.float()*0.004
		if got := c.Decide(ctx(buf, omega, 20)); got != want {
			t.Fatalf("step %d: rung %+v, exact planner at the rounded state %+v", i, got, want)
		}
		if i == 0 {
			first = c.SolveStats()
		}
	}
	st := c.SolveStats()
	if first.Solves != 1 || st.Solves != first.Solves {
		t.Errorf("solves %d after the first decision and %d after 400; near-identical states should coalesce",
			first.Solves, st.Solves)
	}
	if st.SharedLookups != 400 || st.SharedHits != 399 {
		t.Errorf("shared cache %d hits of %d lookups, want 399 of 400", st.SharedHits, st.SharedLookups)
	}

	// Reset is a no-op: the same state is still a hit with the same rung.
	c.Reset()
	if got := c.Decide(ctx(10.001, 24.001, 20)); got != want {
		t.Fatalf("after Reset: rung %+v, want %+v", got, want)
	}
	afterReset := c.SolveStats()
	if afterReset.Solves != st.Solves || afterReset.SharedHits != st.SharedHits+1 {
		t.Errorf("Reset changed the decide path: stats %+v, then %+v", st, afterReset)
	}

	// A buffer cap change keys a different problem: a miss and a fresh
	// solve, deciding as a controller that only ever saw the new cap.
	got := c.Decide(ctx(10, 24, 40))
	if fresh := New(cfg, ladder).Decide(ctx(10, 24, 40)); got != fresh {
		t.Fatalf("cap-change decision %+v, fresh controller at cap 40 %+v", got, fresh)
	}
	capChange := c.SolveStats()
	if capChange.SharedHits != afterReset.SharedHits || capChange.Solves != afterReset.Solves+1 {
		t.Errorf("a cap change was answered from the old cap's entries: stats %+v, then %+v", afterReset, capChange)
	}
}

// TestMemoQuantumZeroExactKeys checks the documented MemoQuantum=0 behaviour:
// planning keys are the exact floats, so an exactly repeated state is a
// shared-cache hit while a state a hair away is its own key and is solved —
// where the default quantum would coalesce the two.
func TestMemoQuantumZeroExactKeys(t *testing.T) {
	ctx := func(buf float64) *abr.Context {
		return &abr.Context{
			Buffer: units.Seconds(buf), BufferCap: units.Seconds(20), PrevRung: 2, Ladder: video.Mobile(),
			Predict: func(units.Seconds) units.Mbps { return units.Mbps(6.5) },
		}
	}
	for _, q := range []float64{0, DefaultConfig().MemoQuantum} {
		cfg := DefaultConfig()
		cfg.MemoQuantum = q
		cfg.SharedCache = NewSolveCache(64)
		c := New(cfg, video.Mobile())
		first := c.Decide(ctx(9.123))
		second := c.Decide(ctx(9.123))
		if first != second {
			t.Fatalf("q=%g: decisions differ on identical state: %+v vs %+v", q, first, second)
		}
		st := c.SolveStats()
		if st.Solves != 1 || st.SharedHits != 1 {
			t.Fatalf("q=%g: repeated state took %d solves and %d shared hits, want 1 and 1", q, st.Solves, st.SharedHits)
		}
		c.Decide(ctx(9.123 + 1e-9))
		near := c.SolveStats()
		if exact := q == 0; exact != (near.Solves == st.Solves+1 && near.SharedHits == st.SharedHits) {
			t.Errorf("q=%g: a state 1e-9 away took %d solves and %d shared hits (from %d and %d); exact keys only at q=0",
				q, near.Solves, near.SharedHits, st.Solves, st.SharedHits)
		}
	}
}

// jitteryTrajectory is a session-like context stream: every fourth step the
// buffer and the throughput prediction take a random step, and in between
// they only jitter by under 0.005, so nearby states recur. The previous rung
// is fed back from decide. Buffers stay at least a segment below the 20 s
// cap, so no context is a wait.
func jitteryTrajectory(ladder video.Ladder, steps int, decide func(*abr.Context) abr.Decision) []int {
	rng := newSplitMix(99)
	buf, omega, prev := 9.0, 24.0, abr.NoRung
	rungs := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		if i%4 == 0 {
			buf = math.Min(math.Max(buf+(rng.float()-0.5)*3, 0), 16)
			omega = math.Min(math.Max(omega+(rng.float()-0.5)*12, 1), 80)
		}
		w := units.Mbps(omega + rng.float()*0.004)
		d := decide(&abr.Context{
			Buffer: units.Seconds(buf + rng.float()*0.004), BufferCap: units.Seconds(20),
			PrevRung: prev, Ladder: ladder, SegmentIndex: i, TotalSegments: steps,
			Predict: func(units.Seconds) units.Mbps { return w },
		})
		rungs = append(rungs, d.Rung)
		prev = d.Rung
	}
	return rungs
}

// TestDecidePlansAtQuantum pins the one quantization rule: a controller at
// quantum q decides every context exactly as an exact planner (MemoQuantum
// 0) decides the same context with its buffer and prediction pre-rounded to
// q. At the coarsest quantum some raw decisions must differ from the exact
// planner's, so a Decide that skipped the rounding would fail here.
func TestDecidePlansAtQuantum(t *testing.T) {
	ladder := video.YouTube4K()
	exactCfg := DefaultConfig()
	exactCfg.MemoQuantum = 0
	for _, q := range []float64{0.01, 0.5, 2} {
		cfg := DefaultConfig()
		cfg.MemoQuantum = q
		quantized, exact, raw := New(cfg, ladder), New(exactCfg, ladder), New(exactCfg, ladder)
		differ := 0
		jitteryTrajectory(ladder, 600, func(ctx *abr.Context) abr.Decision {
			got := quantized.Decide(ctx)
			rounded := *ctx
			rounded.Buffer = quantize(ctx.Buffer, q)
			w := quantize(ctx.PredictSafe(units.Seconds(0)), q)
			rounded.Predict = func(units.Seconds) units.Mbps { return w }
			if want := exact.Decide(&rounded); got != want {
				t.Fatalf("q=%g segment %d: rung %+v, exact planner at the rounded state %+v", q, ctx.SegmentIndex, got, want)
			}
			if got != raw.Decide(ctx) {
				differ++
			}
			return got
		})
		t.Logf("q=%g: %d of 600 decisions differ from exact planning on the raw state", q, differ)
		if q == 2 && differ == 0 {
			t.Error("quantum 2 never changed a decision; the trajectory cannot see quantization")
		}
	}
}

// TestSolveMemoSizeInert pins that the deprecated SolveMemoSize does
// nothing: controllers differing only in it decide identically and do
// identical solver work over one trajectory.
func TestSolveMemoSizeInert(t *testing.T) {
	ladder := video.YouTube4K()
	var wantRungs []int
	var wantStats SolveStats
	for i, size := range []int{0, 1, 512, 1 << 20} {
		cfg := DefaultConfig()
		cfg.SolveMemoSize = size
		c := New(cfg, ladder)
		rungs := jitteryTrajectory(ladder, 600, c.Decide)
		st := c.SolveStats()
		if i == 0 {
			wantRungs, wantStats = rungs, st
			continue
		}
		if !equalInts(rungs, wantRungs) {
			t.Errorf("SolveMemoSize %d changed decisions", size)
		}
		if st != wantStats {
			t.Errorf("SolveMemoSize %d: stats %+v, want %+v", size, st, wantStats)
		}
	}
}
