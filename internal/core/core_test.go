package core

import (
	"math"
	"testing"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

func defaultModel() *CostModel {
	return NewCostModel(DefaultConfig(), video.YouTube4K(), units.Seconds(20))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.Horizon = 0 }),
		mut(func(c *Config) { c.MaxHorizonSeconds = 0 }),
		mut(func(c *Config) { c.Beta = -1 }),
		mut(func(c *Config) { c.Gamma = -1 }),
		mut(func(c *Config) { c.Epsilon = 0 }),
		mut(func(c *Config) { c.Epsilon = 1 }),
		mut(func(c *Config) { c.TargetFraction = 0 }),
		mut(func(c *Config) { c.TargetFraction = 1.5 }),
		mut(func(c *Config) { c.Distortion = Distortion(9) }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBufferCostShape(t *testing.T) {
	m := defaultModel()
	// Target is 0.6 * 20 = 12 s.
	if m.target != 12 {
		t.Fatalf("target = %v", m.target)
	}
	if got := m.bufferCost(units.Seconds(12)); got != 0 {
		t.Errorf("b(target) = %v", got)
	}
	// Below target: full quadratic; above: epsilon roll-off.
	below := m.bufferCost(12 - 3)
	above := m.bufferCost(12 + 3)
	if math.Abs(below-9) > 1e-12 {
		t.Errorf("b(target-3) = %v, want 9", below)
	}
	if math.Abs(above-0.2*9) > 1e-12 {
		t.Errorf("b(target+3) = %v, want %v", above, 0.2*9)
	}
	if above >= below {
		t.Error("overfull buffer must be penalized less than underfull")
	}
}

func TestDistortionNormalization(t *testing.T) {
	for _, d := range []Distortion{DistortionInverse, DistortionLog} {
		cfg := DefaultConfig()
		cfg.Distortion = d
		m := NewCostModel(cfg, video.YouTube4K(), units.Seconds(20))
		if math.Abs(m.v[0]-1) > 1e-12 {
			t.Errorf("distortion %d: v[rmin] = %v, want 1", d, m.v[0])
		}
		if math.Abs(m.v[len(m.v)-1]) > 1e-12 {
			t.Errorf("distortion %d: v[rmax] = %v, want 0", d, m.v[len(m.v)-1])
		}
		for i := 1; i < len(m.v); i++ {
			if m.v[i] >= m.v[i-1] {
				t.Errorf("distortion %d: v not strictly decreasing at %d", d, i)
			}
		}
	}
}

func TestBufferDynamics(t *testing.T) {
	m := defaultModel()
	// x1 = x0 + ωΔt/r − Δt. With ω = r, buffer is flat.
	for i := 0; i < m.ladder.Len(); i++ {
		r := m.ladder.Mbps(i)
		if got := m.nextBuffer(units.Seconds(10), r, i); math.Abs(float64(got)-10) > 1e-12 {
			t.Errorf("rung %d: ω=r should hold buffer, got %v", i, got)
		}
	}
	// ω = 2r doubles the download rate: buffer grows by Δt.
	if got := m.nextBuffer(units.Seconds(10), units.Mbps(24), 2); math.Abs(float64(got)-(10+2*24.0/7.5-2)) > 1e-12 {
		t.Errorf("nextBuffer = %v", got)
	}
}

func TestStepCostFeasibility(t *testing.T) {
	m := defaultModel()
	// Draining below zero is infeasible: buffer 1 s, ω tiny, top rung.
	if _, _, ok := m.stepCost(5, 5, units.Seconds(1), units.Mbps(0.1)); ok {
		t.Error("starving step accepted")
	}
	// Overflow clamps to the cap (the player idles there) rather than
	// failing: buffer 19.5 s, huge ω, lowest rung.
	if _, x1, ok := m.stepCost(0, 0, units.Seconds(19.5), units.Mbps(60)); !ok || x1 != 20 {
		t.Errorf("overflow step should clamp to the cap, got x1=%v ok=%v", x1, ok)
	}
	// Feasible middle.
	c, x1, ok := m.stepCost(3, 3, units.Seconds(12), units.Mbps(12))
	if !ok || c < 0 {
		t.Errorf("feasible step rejected: cost=%v ok=%v", c, ok)
	}
	if math.Abs(float64(x1)-12) > 1e-12 {
		t.Errorf("x1 = %v", x1)
	}
}

func TestSwitchingCostOnlyOnChange(t *testing.T) {
	m := defaultModel()
	stay, _, _ := m.stepCost(3, 3, units.Seconds(12), units.Mbps(12))
	first, _, _ := m.stepCost(3, -1, units.Seconds(12), units.Mbps(12))
	if math.Abs(stay-first) > 1e-12 {
		t.Errorf("no-switch cost %v != no-previous cost %v", stay, first)
	}
	moved, _, _ := m.stepCost(2, 3, units.Seconds(12), units.Mbps(12))
	flat, _, _ := m.stepCost(2, 2, units.Seconds(12), units.Mbps(12))
	if moved <= flat {
		t.Errorf("switching must cost extra: moved=%v flat=%v", moved, flat)
	}
}

func TestBruteForceIsLowerBound(t *testing.T) {
	m := defaultModel()
	cases := []struct {
		omega, x0 float64
		prev, k   int
	}{
		{30, 12, 3, 4}, {5, 5, 5, 4}, {60, 18, 0, 3}, {2, 2, 2, 5}, {10, 10, -1, 4},
	}
	for _, c := range cases {
		omegas := []units.Mbps{units.Mbps(c.omega)}
		fast := m.searchMonotonic(omegas, units.Seconds(c.x0), c.prev, c.k, m.ladder.Len()-1)
		slow := m.bruteForce(omegas, units.Seconds(c.x0), c.prev, c.k, m.ladder.Len()-1)
		if (fast.rung < 0) != (slow.rung < 0) {
			t.Errorf("case %+v: feasibility disagreement fast=%d slow=%d", c, fast.rung, slow.rung)
			continue
		}
		if fast.rung < 0 {
			continue
		}
		if slow.obj > fast.obj+1e-9 {
			t.Errorf("case %+v: brute force worse than monotonic: %v > %v", c, slow.obj, fast.obj)
		}
	}
}

func TestMonotonicMatchesBruteForceHighGamma(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gamma = 1000 // strong smoothing: Theorem 4.3 regime
	cfg.Horizon = 2
	p := MismatchProbabilityStats(cfg, video.YouTube4K(), units.Seconds(20), 1500, 11).Probability
	if p > 0.02 {
		t.Errorf("high-gamma mismatch probability = %v, want ~0", p)
	}
}

func TestMismatchProbabilityDecreasesWithGamma(t *testing.T) {
	// Figure 8: mismatch probability converges to 0 as the switching weight
	// grows (and grows with the horizon K).
	probs := make([]float64, 0, 3)
	for _, gamma := range []float64{0.02, 0.3, 5} {
		cfg := DefaultConfig()
		cfg.Gamma = gamma
		cfg.Horizon = 3
		probs = append(probs, MismatchProbabilityStats(cfg, video.YouTube4K(), units.Seconds(20), 1500, 5).Probability)
	}
	if !(probs[0] > probs[1] && probs[1] >= probs[2]) {
		t.Errorf("mismatch not shrinking in gamma: %v", probs)
	}
	if probs[2] > 0.02 {
		t.Errorf("gamma=5 mismatch = %v, want ~0", probs[2])
	}
	// Horizon dependence: larger K makes the monotone restriction bite more.
	cfg := DefaultConfig()
	cfg.Gamma = 0.3
	cfg.Horizon = 2
	k2 := MismatchProbabilityStats(cfg, video.YouTube4K(), units.Seconds(20), 1500, 5).Probability
	if k2 > probs[1] {
		t.Errorf("K=2 mismatch %v should be below K=3 mismatch %v", k2, probs[1])
	}
}

func newCtx(buffer, cap_ float64, prev int, omega float64) *abr.Context {
	return &abr.Context{
		Buffer:    units.Seconds(buffer),
		BufferCap: units.Seconds(cap_),
		PrevRung:  prev,
		Ladder:    video.YouTube4K(),
		Predict:   func(units.Seconds) units.Mbps { return units.Mbps(omega) },
	}
}

func TestControllerBasicDecisions(t *testing.T) {
	c := New(DefaultConfig(), video.YouTube4K())
	if c.Name() != "soda" {
		t.Errorf("Name = %q", c.Name())
	}
	c.Reset()

	// Rich bandwidth, healthy buffer: a high rung.
	d := c.Decide(newCtx(12, 20, 4, 57))
	if d.Rung < 3 {
		t.Errorf("rich conditions chose rung %d", d.Rung)
	}
	// Thin bandwidth from a low previous rung: the §5.1 cap forbids moving
	// up past min{r >= ω̂}.
	d = c.Decide(newCtx(12, 20, 0, 2))
	if d.Rung > video.YouTube4K().CapIndex(units.Mbps(2)) {
		t.Errorf("cap heuristic violated: rung %d for ω=2", d.Rung)
	}
	// The cap never forces a down-switch: from a high previous rung the
	// controller may stay while the buffer absorbs a transient dip.
	d = c.Decide(newCtx(12, 20, 4, 2))
	if d.Rung > 4 {
		t.Errorf("rung %d exceeds previous under the cap", d.Rung)
	}
	// Starving buffer with tiny bandwidth: lowest rung, not a wait.
	d = c.Decide(newCtx(0.5, 20, 5, 0.3))
	if d.Rung != 0 {
		t.Errorf("starving buffer chose %d, want 0", d.Rung)
	}
	// Full buffer with throughput above the top rung: even r_max grows the
	// buffer past the cap, so the controller waits (the blank region of
	// Fig. 5). Note that for ω <= r_max the §5.1 cap heuristic guarantees a
	// non-overflowing rung exists (r_cap >= ω̂ holds the buffer flat), so the
	// wait region only appears at very high throughput.
	d = c.Decide(newCtx(19.9, 20, 0, 70))
	if d.Rung != abr.NoRung || d.WaitSeconds <= 0 {
		t.Errorf("full buffer decision = %+v, want wait", d)
	}
}

func TestControllerFirstDecisionNoPrev(t *testing.T) {
	c := New(DefaultConfig(), video.YouTube4K())
	d := c.Decide(newCtx(0, 20, abr.NoRung, 20))
	if d.Rung < 0 || d.Rung >= video.YouTube4K().Len() {
		t.Errorf("first decision rung = %d", d.Rung)
	}
}

func TestControllerHorizonClamps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 50 // would be 100 s of planning; clamp to 10 s => K = 5
	c := New(cfg, video.YouTube4K())
	ctx := newCtx(12, 20, 3, 30)
	if k := c.horizon(ctx); k != 5 {
		t.Errorf("horizon = %d, want 5", k)
	}
	ctx.TotalSegments = 100
	ctx.SegmentIndex = 98
	if k := c.horizon(ctx); k != 2 {
		t.Errorf("end-of-stream horizon = %d, want 2", k)
	}
}

func TestControllerBruteForceAgreesOnEasyCases(t *testing.T) {
	cfg := DefaultConfig()
	bf := cfg
	bf.UseBruteForce = true
	fast := New(cfg, video.YouTube4K())
	slow := New(bf, video.YouTube4K())
	for _, omega := range []float64{2, 8, 20, 57} {
		for _, buf := range []float64{4, 10, 16} {
			a := fast.Decide(newCtx(buf, 20, 3, omega))
			b := slow.Decide(newCtx(buf, 20, 3, omega))
			// Theorem 4.3 only guarantees approximate agreement; on real
			// trajectories the decisions are usually identical and never
			// far apart.
			if diff := a.Rung - b.Rung; diff < -1 || diff > 1 {
				t.Errorf("ω=%v buf=%v: monotonic %d vs brute %d", omega, buf, a.Rung, b.Rung)
			}
		}
	}
	// In sustainable steady state (ω matches a rung, buffer at target) the
	// decisions must agree exactly: the optimum is flat, which is monotone.
	for _, c := range []struct {
		omega float64
		prev  int
	}{{4, 1}, {12, 3}, {24, 4}, {60, 5}} {
		a := fast.Decide(newCtx(12, 20, c.prev, c.omega))
		b := slow.Decide(newCtx(12, 20, c.prev, c.omega))
		if a.Rung != b.Rung {
			t.Errorf("steady state ω=%v: monotonic %d vs brute %d", c.omega, a.Rung, b.Rung)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config should panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Horizon = 0
	New(cfg, video.YouTube4K())
}

func TestDecisionDiagramStructure(t *testing.T) {
	// Figure 5: decisions grow more aggressive with buffer and throughput;
	// the rightmost (high-buffer) region is blank.
	cfg := DefaultConfig()
	buffers := Grid[units.Seconds](1, 19.9, 10)
	omegas := Grid[units.Mbps](1, 70, 12)
	cells := DecisionDiagram(cfg, video.YouTube4K(), units.Seconds(20), buffers, omegas, 3)
	byKey := map[[2]float64]int{}
	for _, c := range cells {
		byKey[[2]float64{float64(c.Buffer), float64(c.Omega)}] = c.Rung
	}
	// Monotone in omega for fixed healthy buffer (among download decisions).
	prev := -2
	for _, w := range omegas {
		r := byKey[[2]float64{float64(buffers[5]), float64(w)}]
		if r >= 0 && prev >= 0 && r < prev-1 {
			t.Errorf("rung drops sharply with rising ω at buffer %v: %d -> %d", buffers[5], prev, r)
		}
		if r >= 0 {
			prev = r
		}
	}
	// There exists a blank (wait) region at the top buffer row for high ω.
	blank := false
	for _, w := range omegas {
		if byKey[[2]float64{float64(buffers[len(buffers)-1]), float64(w)}] == abr.NoRung {
			blank = true
		}
	}
	if !blank {
		t.Error("no blank no-download region near the buffer cap")
	}
	out := RenderDiagram(cells, buffers, omegas)
	if len(out) == 0 {
		t.Error("empty diagram rendering")
	}
}

func TestGrid(t *testing.T) {
	g := Grid[float64](0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("Grid[%d] = %v", i, g[i])
		}
	}
	if g := Grid[float64](3, 9, 1); len(g) != 1 || g[0] != 3 {
		t.Errorf("degenerate grid = %v", g)
	}
}

func TestCountMonotonicSequences(t *testing.T) {
	// 6 rungs, K=5: C(10,5) = 252 non-decreasing sequences; brute force 7776.
	if got := countMonotonicSequences(6, 5); got != 252 {
		t.Errorf("count = %d, want 252", got)
	}
	if got := binomial(10, 0); got != 1 {
		t.Errorf("C(10,0) = %d", got)
	}
	if got := binomial(4, 7); got != 0 {
		t.Errorf("C(4,7) = %d", got)
	}
}

func TestSolverCapBelowPrevRung(t *testing.T) {
	// Throughput collapse: cap sits below the previous rung; the solver must
	// still return a feasible (downward) plan.
	m := defaultModel()
	res := m.searchMonotonic([]units.Mbps{2}, units.Seconds(10), 5, 4, video.YouTube4K().CapIndex(units.Mbps(2)))
	if res.rung < 0 || res.rung > 1 {
		t.Errorf("collapse decision = %d", res.rung)
	}
}

func TestRegistryFactories(t *testing.T) {
	// The init-registered factories must build working controllers.
	for _, name := range []string{"soda", "soda-bruteforce"} {
		c, err := abr.New(name, video.Mobile())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Reset()
		d := c.Decide(&abr.Context{
			Buffer: units.Seconds(10), BufferCap: units.Seconds(20), PrevRung: 1, Ladder: video.Mobile(),
			Predict: func(units.Seconds) units.Mbps { return units.Mbps(8) },
		})
		if d.Rung < 0 || d.Rung >= video.Mobile().Len() {
			t.Errorf("%s: decision %+v", name, d)
		}
	}
}

func TestNewCostModelPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCostModel with invalid config should panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Epsilon = 2
	NewCostModel(cfg, video.Mobile(), units.Seconds(20))
}

func TestRecedingHorizonBoundaryReplay(t *testing.T) {
	// Drive the receding-horizon replay into the boundary-clamp path: a
	// bandwidth surge the committed decision cannot absorb forces the exact
	// replay to clamp (stepCostUnchecked).
	cfg := DefaultConfig()
	m := NewCostModel(cfg, video.Mobile(), units.Seconds(20))
	omegas := []units.Mbps{6, 6, 6, 200, 200, 6, 6, 6, 6, 6}
	cost, seq, err := RecedingHorizonCost(m, omegas, units.Seconds(18), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(omegas) || cost <= 0 {
		t.Errorf("cost=%v len=%d", cost, len(seq))
	}
}
