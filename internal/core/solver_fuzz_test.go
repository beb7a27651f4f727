package core

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/video"
)

// fuzzLadders are the ladders the differential harness draws from: the two
// evaluation ladders of the paper plus the prototype and production ladders,
// so rung counts 4, 5, 6 and 15 are all exercised.
func fuzzLadders() []video.Ladder {
	return []video.Ladder{
		video.YouTube4K(),
		video.Mobile(),
		video.Prototype(),
		video.PrimeVideo(),
	}
}

// FuzzSolverEquivalence is the differential-testing harness proving the
// branch-and-bound solver exact: for random planning problems, the pruned
// solver, the pruning-disabled solver, and the retained recursive reference
// (searchMonotonicRef) must commit the identical first rung with objectives
// within 1e-9; brute force over the full (non-monotone) space must agree on
// feasibility, never be beaten, and may only disagree on the rung when its
// non-monotone plan is strictly better (the Figure 8 mismatch regime).
func FuzzSolverEquivalence(f *testing.F) {
	// Seed corpus: a grid over ladder, buffer fraction, throughput, previous
	// rung, horizon, cap and switching weight — 64 cases covering session
	// start (prev = -1), caps below the previous rung, starvation-prone
	// buffers, overflow-prone throughputs and the low-gamma mismatch regime.
	for lad := uint8(0); lad < 4; lad++ {
		for _, xFrac := range []float64{0.02, 0.55, 0.98} {
			for _, omega := range []float64{0.4, 6, 35, 140} {
				prev := int8(lad) - 1 // -1, 0, 1, 2 across ladders
				k := uint8(1 + (lad+uint8(omega))%4)
				f.Add(lad, xFrac, omega, omega, prev, k, uint8(7), 5.0)
			}
		}
	}
	f.Add(uint8(0), 0.5, 2.0, 2.0, int8(5), uint8(4), uint8(1), 5.0)   // cap below prev
	f.Add(uint8(1), 0.9, 12.0, 1.0, int8(3), uint8(4), uint8(7), 0.06) // low gamma, dropping ω̂
	f.Add(uint8(2), 0.0, 0.1, 0.1, int8(0), uint8(3), uint8(7), 0.3)   // empty buffer, starving
	f.Add(uint8(3), 1.0, 900.0, 900.0, int8(-1), uint8(4), uint8(7), 1.0)

	f.Fuzz(func(t *testing.T, ladPick uint8, xFrac, omega0, omega1 float64, prevRaw int8, kRaw, maxRaw uint8, gammaRaw float64) {
		ladders := fuzzLadders()
		ladder := ladders[int(ladPick)%len(ladders)]
		n := ladder.Len()

		if math.IsNaN(xFrac) || math.IsInf(xFrac, 0) || math.IsNaN(omega0) ||
			math.IsNaN(omega1) || math.IsNaN(gammaRaw) {
			t.Skip("non-finite input")
		}
		const bufferCap = 20.0
		x0 := units.Seconds(math.Min(1, math.Max(0, xFrac)) * bufferCap)
		clampOmega := func(w float64) float64 {
			return math.Min(1000, math.Max(0.05, math.Abs(w)))
		}
		omegas := []units.Mbps{units.Mbps(clampOmega(omega0)), units.Mbps(clampOmega(omega1))}
		prev := int(prevRaw)
		if prev < -1 {
			prev = -1
		}
		if prev >= n {
			prev = n - 1
		}
		k := 1 + int(kRaw)%4 // k <= 4 keeps brute force affordable
		maxRung := int(maxRaw) % n

		cfg := DefaultConfig()
		cfg.Gamma = math.Min(100, math.Max(0, math.Abs(gammaRaw)))
		pruned := NewCostModel(cfg, ladder, bufferCap)
		noPruneCfg := cfg
		noPruneCfg.DisablePruning = true
		unpruned := NewCostModel(noPruneCfg, ladder, bufferCap)

		fast := pruned.searchMonotonic(omegas, x0, prev, k, maxRung)
		plain := unpruned.searchMonotonic(omegas, x0, prev, k, maxRung)
		ref := pruned.searchMonotonicRef(omegas, x0, prev, k, maxRung)

		for _, got := range []struct {
			name string
			res  solveResult
		}{{"pruned", fast}, {"unpruned", plain}} {
			if got.res.rung != ref.rung {
				t.Fatalf("%s solver rung %d != reference %d (x0=%v ω=%v prev=%d k=%d cap=%d γ=%v)",
					got.name, got.res.rung, ref.rung, x0, omegas, prev, k, maxRung, cfg.Gamma)
			}
			if ref.rung >= 0 && math.Abs(got.res.obj-ref.obj) > 1e-9 {
				t.Fatalf("%s solver objective %v != reference %v (x0=%v ω=%v prev=%d k=%d cap=%d)",
					got.name, got.res.obj, ref.obj, x0, omegas, prev, k, maxRung)
			}
		}

		slow := pruned.bruteForce(omegas, x0, prev, k, maxRung)
		if (fast.rung < 0) != (slow.rung < 0) {
			t.Fatalf("feasibility disagreement: monotone %d vs brute force %d (x0=%v ω=%v prev=%d k=%d cap=%d)",
				fast.rung, slow.rung, x0, omegas, prev, k, maxRung)
		}
		if fast.rung < 0 {
			return
		}
		if slow.obj > fast.obj+1e-9 {
			t.Fatalf("brute force worse than monotone: %v > %v (x0=%v ω=%v prev=%d k=%d cap=%d)",
				slow.obj, fast.obj, x0, omegas, prev, k, maxRung)
		}
		// A rung mismatch against brute force is legitimate in exactly two
		// cases, both already admitted by the checks above: a strictly better
		// non-monotone plan (the Theorem 4.3 approximation gap, measured by
		// Figure 8) or an exact objective tie broken in the solvers'
		// different enumeration orders.
	})
}

// TestSolverEquivalenceAcrossStackBound holds the solver to the retained
// recursive reference bit for bit, rung and objective, on both sides of the
// stack bound: at K = stackHorizon the search state lives on the stack, at
// K = stackHorizon+1 it is allocated per solve (newSolveScratch).
// FuzzSolverEquivalence draws K <= 4 only. The stack-side solve must not
// allocate either.
func TestSolverEquivalenceAcrossStackBound(t *testing.T) {
	const bufferCap = 20.0
	for _, lad := range []struct {
		name   string
		ladder video.Ladder
	}{{"youtube4k", video.YouTube4K()}, {"mobile", video.Mobile()}} {
		n := lad.ladder.Len()
		for _, pruned := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.DisablePruning = !pruned
			m := NewCostModel(cfg, lad.ladder, bufferCap)
			for _, k := range []int{stackHorizon, stackHorizon + 1} {
				for _, prev := range []int{-1, n / 2} { // session start, mid-session
					for _, st := range []struct {
						x0     units.Seconds
						omegas []units.Mbps
					}{
						{units.Seconds(2), []units.Mbps{lad.ladder.Min() * 0.8}},
						{units.Seconds(11), []units.Mbps{lad.ladder.Mbps(n / 2), lad.ladder.Mbps(n/2) * 1.3}},
						{units.Seconds(19.5), []units.Mbps{lad.ladder.Max() * 1.5, lad.ladder.Max() * 0.4}},
					} {
						for _, maxRung := range []int{n - 1, n / 2} {
							got := m.searchMonotonic(st.omegas, st.x0, prev, k, maxRung)
							want := m.searchMonotonicRef(st.omegas, st.x0, prev, k, maxRung)
							if got.rung != want.rung || (want.rung >= 0 && math.Float64bits(got.obj) != math.Float64bits(want.obj)) {
								t.Fatalf("%s pruned=%v K=%d prev=%d x0=%v ω=%v cap=%d: solver %+v != reference %+v",
									lad.name, pruned, k, prev, st.x0, st.omegas, maxRung, got, want)
							}
						}
					}
				}
			}
			omegas := []units.Mbps{lad.ladder.Mbps(n / 2)}
			if allocs := testing.AllocsPerRun(10, func() {
				m.searchMonotonic(omegas, units.Seconds(11), n/2, stackHorizon, n-1)
			}); allocs != 0 {
				t.Errorf("%s pruned=%v: a K=%d solve allocates %.1f times", lad.name, pruned, stackHorizon, allocs)
			}
		}
	}
}
