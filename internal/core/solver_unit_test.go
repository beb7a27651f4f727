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
		mut(func(c *Config) { c.SolveMemoSize = -1 }),
		mut(func(c *Config) { c.SolveMemoSize = 1<<20 + 1 }),
		mut(func(c *Config) { c.MemoQuantum = -0.5 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad solver config %d accepted", i)
		}
	}
	good := []Config{
		mut(func(c *Config) { c.SolveMemoSize = 0 }), // memo disabled
		mut(func(c *Config) { c.MemoQuantum = 0 }),   // exact-float keys
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
		// A fresh throughput every step misses the memo, so every decision
		// solves.
		omega := units.Mbps(17.3 + 0.37*float64(i))
		c.Decide(&abr.Context{
			Buffer:    units.Seconds(8),
			BufferCap: units.Seconds(capSeconds),
			PrevRung:  2,
			Ladder:    ladder,
			Predict:   func(units.Seconds) units.Mbps { return omega },
		})
		st := c.SolveStats()
		if st.Solves <= prev.Solves || st.Nodes <= prev.Nodes || st.MemoLookups <= prev.MemoLookups {
			t.Fatalf("step %d (cap %g s): counters went from %+v to %+v", i, capSeconds, prev, st)
		}
		prev = st
	}
}

// TestDecideSteadyStateZeroAlloc pins the allocation-free steady-state solve
// path at K=5: after warmup, Decide must not allocate.
func TestDecideSteadyStateZeroAlloc(t *testing.T) {
	for _, memo := range []bool{true, false} {
		cfg := DefaultConfig()
		if !memo {
			cfg.SolveMemoSize = 0
		}
		c := New(cfg, video.YouTube4K())
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
			t.Errorf("memo=%v: Decide allocates %.1f times per op in steady state", memo, allocs)
		}
	}
}

// TestPrewarmZeroAllocFirstDecide pins the Prewarm contract: after Prewarm
// at the session's buffer cap, even the very first Decide is allocation-free
// — the cost model and solver scratch, Decide's only lazy allocations, are
// already bound. The fleet simulator relies on this to keep its decide path
// at zero allocs from the first event.
func TestPrewarmZeroAllocFirstDecide(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SolveMemoSize = 0
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

// TestDecideMemo checks the Decide-level memo: hits on repeated quantized
// states, identical decisions with and without the memo on a realistic
// trajectory, and a flush on Reset and on buffer cap changes.
func TestDecideMemo(t *testing.T) {
	ladder := video.YouTube4K()
	cfg := DefaultConfig()
	memoed := New(cfg, ladder)
	exactCfg := cfg
	exactCfg.SolveMemoSize = 0
	exact := New(exactCfg, ladder)

	ctx := func(buf, omega float64, prev int) *abr.Context {
		return &abr.Context{
			Buffer: units.Seconds(buf), BufferCap: units.Seconds(20), PrevRung: prev, Ladder: ladder,
			Predict: func(units.Seconds) units.Mbps { return units.Mbps(omega) },
		}
	}

	// A jittery but slowly-moving trajectory: buffers and predictions within
	// a quantum of each other must coalesce into memo hits.
	rng := newSplitMix(99)
	for i := 0; i < 400; i++ {
		buf := 10 + rng.float()*0.004 // all quantize to 10.00
		omega := 24 + rng.float()*0.004
		a := memoed.Decide(ctx(buf, omega, 4))
		b := exact.Decide(ctx(buf, omega, 4))
		if a.Rung != b.Rung {
			t.Fatalf("step %d: memoized rung %d != exact %d", i, a.Rung, b.Rung)
		}
	}
	st := memoed.SolveStats()
	if st.MemoLookups == 0 {
		t.Fatal("memo never consulted")
	}
	if st.MemoHits < st.MemoLookups-8 {
		t.Errorf("memo hits %d of %d lookups; near-identical states should coalesce",
			st.MemoHits, st.MemoLookups)
	}

	// Reset flushes: the first post-Reset decision must miss.
	before := memoed.SolveStats().MemoHits
	memoed.Reset()
	memoed.Decide(ctx(10.001, 24.001, 4))
	after := memoed.SolveStats()
	if after.MemoHits != before {
		t.Error("memo survived Reset")
	}

	// A buffer cap change invalidates the cache too.
	memoed.Decide(ctx(10.001, 24.001, 4)) // hit at cap 20
	hits := memoed.SolveStats().MemoHits
	d := memoed.Decide(&abr.Context{
		Buffer: units.Seconds(10), BufferCap: units.Seconds(40), PrevRung: 4, Ladder: ladder,
		Predict: func(units.Seconds) units.Mbps { return units.Mbps(24) },
	})
	if d.Rung < 0 || d.Rung >= ladder.Len() {
		t.Fatalf("cap-change decision %+v", d)
	}
	if got := memoed.SolveStats().MemoHits; got != hits {
		t.Error("memo survived a buffer cap change")
	}
}

// TestMemoQuantumZeroExactKeys checks the documented MemoQuantum=0 behaviour:
// exact-float keys still hit on exactly repeated states.
func TestMemoQuantumZeroExactKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoQuantum = 0
	c := New(cfg, video.Mobile())
	ctx := &abr.Context{
		Buffer: units.Seconds(9.125), BufferCap: units.Seconds(20), PrevRung: 2, Ladder: video.Mobile(),
		Predict: func(units.Seconds) units.Mbps { return units.Mbps(6.5) },
	}
	first := c.Decide(ctx)
	second := c.Decide(ctx)
	if first.Rung != second.Rung {
		t.Fatalf("decisions differ on identical state: %d vs %d", first.Rung, second.Rung)
	}
	if st := c.SolveStats(); st.MemoHits == 0 {
		t.Errorf("exact-key memo never hit on repeated state: %+v", st)
	}
}
