package core

import (
	"math"

	"repro/internal/units"
)

// solveResult is a solver's answer for one planning problem.
type solveResult struct {
	rung int     // first rung to commit, or -1 when no feasible plan exists
	obj  float64 // objective of the best plan (undefined when rung < 0)
}

// pruneGuard is the safety margin of the branch-and-bound cut. A subtree is
// discarded only when its optimistic cost exceeds the incumbent by more than
// this margin, so floating-point noise in the left-to-right prefix sums
// (at most a few ulps of the total, ~1e-12 at the objective scales the cost
// model produces) can never prune a plan the reference recursion would have
// preferred. The margin only forfeits pruning of near-tied subtrees, which
// are then rejected exactly at their leaves.
const pruneGuard = 1e-9

// SolveStats counts the work performed by the monotone solver since the last
// ResetSolveStats. The counters quantify the branch-and-bound win (nodes
// evaluated vs. the unpruned enumeration) in benchmarks and ablations.
type SolveStats struct {
	// Solves is the number of planning problems solved.
	Solves uint64
	// Nodes is the number of candidate (rung, state) expansions evaluated —
	// one stepCost call each. This is the solver's unit of work.
	Nodes uint64
	// Leaves is the number of complete length-K plans scored.
	Leaves uint64
	// Pruned is the number of expansions discarded by the admissible bound
	// before their subtree was explored.
	Pruned uint64
	// Deprecated: MemoLookups and MemoHits are always 0; the decide memo
	// they counted is gone. They stay while the benchmark module reads them.
	MemoLookups uint64
	MemoHits    uint64
	// SharedLookups / SharedHits count this controller's traffic against the
	// fleet-wide Config.SharedCache (consulted after a table miss). They are
	// populated by Controller.SolveStats only.
	SharedLookups uint64
	SharedHits    uint64
	// TableLookups / TableHits / TableFallbacks count this controller's
	// traffic against the fleet-wide Config.DecisionTable (consulted first).
	// A fallback is a lookup outside the table's domain that fell through to
	// the shared cache and the solver; lookups = hits + fallbacks. Populated
	// by Controller.SolveStats only.
	TableLookups   uint64
	TableHits      uint64
	TableFallbacks uint64
}

// Add accumulates another counter snapshot into s, so harnesses can sum the
// per-session controller stats of a dataset run.
func (s *SolveStats) Add(o SolveStats) {
	s.Solves += o.Solves
	s.Nodes += o.Nodes
	s.Leaves += o.Leaves
	s.Pruned += o.Pruned
	s.SharedLookups += o.SharedLookups
	s.SharedHits += o.SharedHits
	s.TableLookups += o.TableLookups
	s.TableHits += o.TableHits
	s.TableFallbacks += o.TableFallbacks
}

// Delta returns the per-counter difference s−o, for telemetry call sites
// that snapshot cumulative stats around a Decide and want that decision's
// work. o must be an earlier snapshot of the same counters.
func (s SolveStats) Delta(o SolveStats) SolveStats {
	return SolveStats{
		Solves:         s.Solves - o.Solves,
		Nodes:          s.Nodes - o.Nodes,
		Leaves:         s.Leaves - o.Leaves,
		Pruned:         s.Pruned - o.Pruned,
		SharedLookups:  s.SharedLookups - o.SharedLookups,
		SharedHits:     s.SharedHits - o.SharedHits,
		TableLookups:   s.TableLookups - o.TableLookups,
		TableHits:      s.TableHits - o.TableHits,
		TableFallbacks: s.TableFallbacks - o.TableFallbacks,
	}
}

// SolveStats returns the work counters accumulated by this model's solver.
func (m *CostModel) SolveStats() SolveStats { return m.stats }

// ResetSolveStats zeroes the work counters.
func (m *CostModel) ResetSolveStats() { m.stats = SolveStats{} }

// solveScratch is the preallocated search state reused across solves so the
// steady-state solve path performs no allocations. Slices grow monotonically
// to the largest horizon seen by this model.
type solveScratch struct {
	cur   []int           // next rung to try at each depth (the DFS cursor)
	rung  []int           // committed rung per depth on the current path
	stepC []float64       // cost of the committed step per depth
	x     []units.Seconds // buffer level entering each depth; x[0] = x0
	pref  []float64       // left-associated prefix cost of steps [0, d)
	wsum  []units.Mbps    // suffix sums of ω̂: wsum[d] = Σ_{j>=d} omegaAt(omegas, j)
}

func (s *solveScratch) ensure(k int) {
	if len(s.cur) >= k {
		return
	}
	s.cur = make([]int, k)
	s.rung = make([]int, k)
	s.stepC = make([]float64, k)
	s.x = make([]units.Seconds, k+1)
	s.pref = make([]float64, k+1)
	s.wsum = make([]units.Mbps, k+1)
}

// omegaAt returns the bandwidth prediction for planning step depth. A
// constant predictor passes a single-element slice; the theory experiments
// pass per-step exact predictions (§3.2 allows piecewise-constant forecasts).
func omegaAt(omegas []units.Mbps, depth int) units.Mbps {
	if depth < len(omegas) {
		return omegas[depth]
	}
	return omegas[len(omegas)-1]
}

// searchMonotonic implements Algorithm 1 of the paper as an iterative
// branch-and-bound: it searches only monotonically non-increasing or
// non-decreasing bitrate sequences of length k starting from (x0, prevRung),
// returning the best first rung. Partial plans whose cost so far plus an
// admissible lower bound on the remainder (see remainderBound) already exceed
// the incumbent are pruned; with pruning disabled the search degenerates to
// the plain monotone enumeration of the original recursive solver.
//
// The search visits plans in the same lexicographic order as the reference
// recursion (up direction before down, rungs ascending at every depth) and
// scores complete plans with the identical right-associated summation, so it
// returns bit-identical first rungs and objectives — FuzzSolverEquivalence
// checks this against the retained reference implementation.
//
// maxRung caps every candidate (the §5.1 throughput-cap heuristic); pass
// ladder.Len()-1 to disable. prevRung < 0 (session start) admits any first
// rung with no switching charge, then monotonic continuations in both
// directions.
func (m *CostModel) searchMonotonic(omegas []units.Mbps, x0 units.Seconds, prevRung, k, maxRung int) solveResult {
	if k <= 0 || len(omegas) == 0 || maxRung < 0 {
		return solveResult{rung: -1}
	}
	m.stats.Solves++
	s := &m.scratch
	s.ensure(k)
	// Suffix sums of the per-step predictions feed the remainder bound.
	s.wsum[k] = 0
	for d := k - 1; d >= 0; d-- {
		s.wsum[d] = s.wsum[d+1] + omegaAt(omegas, d)
	}
	best := solveResult{rung: -1, obj: math.Inf(1)}
	if prevRung < 0 {
		// No previous bitrate: any first rung, then monotone either way.
		for r := 0; r <= maxRung; r++ {
			m.stats.Nodes++
			c, x1, ok := m.stepCost(r, -1, x0, omegaAt(omegas, 0))
			if !ok {
				continue
			}
			if k == 1 {
				m.stats.Leaves++
				if c < best.obj {
					best = solveResult{rung: r, obj: c}
				}
				continue
			}
			// The continuation may go either way, so the remainder bound uses
			// the full rung range [0, maxRung].
			if !m.noPrune && best.rung >= 0 &&
				c+m.rateMin[maxRung]*float64(s.wsum[1]) >= best.obj+pruneGuard {
				m.stats.Pruned++
				continue
			}
			s.rung[0], s.stepC[0] = r, c
			s.x[1], s.pref[1] = x1, c
			m.searchDirBB(omegas, prevRung, 1, k, maxRung, +1, math.Inf(1), &best)
			m.searchDirBB(omegas, prevRung, 1, k, maxRung, -1, math.Inf(1), &best)
		}
		return best
	}
	// Seed the prune threshold with the flat stay-at-prevRung plan, the
	// steady-state optimum. The seed only tightens pruning — it never becomes
	// the incumbent directly (the DFS rediscovers it unpruned, because the
	// guard exempts plans within pruneGuard of the threshold), so tie-breaking
	// stays bit-identical to the reference recursion.
	seed := math.Inf(1)
	if !m.noPrune && prevRung <= maxRung {
		total, x := 0.0, x0
		for d := 0; d < k; d++ {
			m.stats.Nodes++
			c, x1, ok := m.stepCost(prevRung, prevRung, x, omegaAt(omegas, d))
			if !ok {
				total = math.Inf(1)
				break
			}
			total += c
			x = x1
		}
		seed = total
	}
	s.x[0], s.pref[0] = x0, 0
	m.searchDirBB(omegas, prevRung, 0, k, maxRung, +1, seed, &best)
	m.searchDirBB(omegas, prevRung, 0, k, maxRung, -1, seed, &best)
	return best
}

// dirRange returns the rung interval admissible at a depth whose predecessor
// is prev: up keeps r in [prev, maxRung], down keeps r in [0, min(prev,
// maxRung)] (equality allowed in both, so flat plans are reachable from
// either direction, exactly as in Algorithm 1).
func dirRange(prev, maxRung, dir int) (lo, hi int) {
	if dir > 0 {
		return prev, maxRung
	}
	hi = prev
	if hi > maxRung {
		hi = maxRung
	}
	return 0, hi
}

// remainderBound is the admissible lower bound on the cost of the remaining
// plan after committing rung r at the current depth: every future step pays
// at least its distortion term ω̂(d)·v[r']·Δt/rate[r'], and buffer and
// switching costs are non-negative, so the remainder costs at least
// min_{r' ≤ hi} (v[r']·Δt/mbps[r']) · Σ remaining ω̂. The per-rung minimum is
// precomputed as rateMin (a prefix minimum, tight because the distortion rate
// is non-increasing in the rung index).
func (m *CostModel) remainderBound(r, maxRung, dir int, wsumRest units.Mbps) float64 {
	hi := maxRung
	if dir < 0 && r < hi {
		hi = r
	}
	return m.rateMin[hi] * float64(wsumRest)
}

// searchDirBB is the iterative branch-and-bound core shared by both
// directions: an explicit depth-first search over monotone continuations from
// startDepth, updating *best in place. The path state for depths below
// startDepth must already be in the scratch (used by the session-start case,
// which pins the first rung before exploring continuations). seed is an
// upper bound on the optimal objective used only to tighten pruning (the
// flat-plan cost, or +Inf); the incumbent itself is updated exclusively from
// evaluated leaves so ties resolve in reference order.
func (m *CostModel) searchDirBB(omegas []units.Mbps, basePrev, startDepth, k, maxRung, dir int, seed float64, best *solveResult) {
	s := &m.scratch
	prune := !m.noPrune
	d := startDepth
	prev := basePrev
	if d > 0 {
		prev = s.rung[d-1]
	}
	lo, _ := dirRange(prev, maxRung, dir)
	s.cur[d] = lo
	for {
		prev = basePrev
		if d > 0 {
			prev = s.rung[d-1]
		}
		_, hi := dirRange(prev, maxRung, dir)
		r := s.cur[d]
		if r > hi {
			// This depth is exhausted: backtrack.
			d--
			if d < startDepth {
				return
			}
			s.cur[d]++
			continue
		}
		limit := best.obj
		if seed < limit {
			limit = seed
		}
		if prune && !math.IsInf(limit, 1) {
			// Optimistic cost of taking rung r here: the step pays exactly
			// ω̂·rate[r] in distortion and at least its switching charge;
			// the buffer term and the remainder are bounded below. When even
			// that exceeds the threshold, skip without evaluating the step.
			opt := s.pref[d] + float64(omegaAt(omegas, d))*m.rate[r]
			dv := (m.v[r] - m.v[prev]) * m.gapInv
			opt += m.gamma * dv * dv
			opt += m.remainderBound(r, maxRung, dir, s.wsum[d+1])
			if opt >= limit+pruneGuard {
				m.stats.Pruned++
				s.cur[d]++
				continue
			}
		}
		m.stats.Nodes++
		c, x1, ok := m.stepCost(r, prev, s.x[d], omegaAt(omegas, d))
		if !ok {
			s.cur[d]++
			continue
		}
		pref := s.pref[d] + c
		if prune && pref+m.remainderBound(r, maxRung, dir, s.wsum[d+1]) >= limit+pruneGuard {
			m.stats.Pruned++
			s.cur[d]++
			continue
		}
		s.rung[d], s.stepC[d] = r, c
		if d == k-1 {
			// Complete plan: score it with the right-associated sum the
			// recursive reference produces, so ties break identically.
			m.stats.Leaves++
			total := 0.0
			for i := k - 1; i >= 0; i-- {
				total = s.stepC[i] + total
			}
			if total < best.obj {
				*best = solveResult{rung: s.rung[0], obj: total}
			}
			s.cur[d]++
			continue
		}
		s.x[d+1], s.pref[d+1] = x1, pref
		d++
		lo, _ = dirRange(r, maxRung, dir)
		s.cur[d] = lo
	}
}

// Solve runs the production monotone solver on one planning problem and
// reports the committed first rung, its objective, and whether any monotone
// plan was feasible. It is the exported entry point for benchmarks and
// downstream tools; the controller's Decide wraps it with input
// quantization, the §5.1 cap, the horizon fallback, and the table and
// shared-cache lookups.
func (m *CostModel) Solve(omegas []units.Mbps, x0 units.Seconds, prevRung, k, maxRung int) (rung int, obj float64, ok bool) {
	res := m.searchMonotonic(omegas, x0, prevRung, k, maxRung)
	return res.rung, res.obj, res.rung >= 0
}

// bruteForce enumerates every rung sequence of length k (the exponential
// reference solver) under the same cap, returning the best first rung.
func (m *CostModel) bruteForce(omegas []units.Mbps, x0 units.Seconds, prevRung, k, maxRung int) solveResult {
	if k <= 0 || len(omegas) == 0 {
		return solveResult{rung: -1}
	}
	seq := make([]int, k)
	best := solveResult{rung: -1, obj: math.Inf(1)}
	for {
		cost := m.sequenceCost(seq, prevRung, x0, omegas)
		if cost < best.obj {
			best = solveResult{rung: seq[0], obj: cost}
		}
		// Advance the odometer.
		i := k - 1
		for i >= 0 {
			seq[i]++
			if seq[i] <= maxRung {
				break
			}
			seq[i] = 0
			i--
		}
		if i < 0 {
			return best
		}
	}
}

// countMonotonicSequences bounds the monotone search space: the number of
// non-decreasing length-k sequences over n rungs is C(n+k-1, k). Algorithm 1
// explores at most twice this (up plus down), versus n^k for brute force.
func countMonotonicSequences(n, k int) int {
	return binomial(n+k-1, k)
}

// binomial computes C(n, k), saturating at math.MaxInt instead of silently
// overflowing (the count is only used to size and report search spaces, where
// "too large to enumerate" is the right answer for astronomically large n).
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		if res > math.MaxInt/(n-i) {
			return math.MaxInt
		}
		res = res * (n - i) / (i + 1)
	}
	return res
}
