package core

import (
	"fmt"
	"math"

	"repro/internal/units"
	"repro/internal/video"
)

// OfflineOptimal computes (approximately) the clairvoyant optimal cost of the
// full-horizon problem (Equation 1) for a known bandwidth sequence, via
// dynamic programming over (step, rung, discretized buffer). It is the
// cost(OPT) reference in the dynamic-regret and competitive-ratio experiments
// (Theorem 4.1 / A.3).
//
// The gridN argument controls the buffer discretization; 400 keeps the
// discretization error well below the regret signal for the horizons tested.
//
// OfflineSolve runs the DP and returns the approximate optimal total cost and
// the optimal rung sequence.
func OfflineSolve(m *CostModel, omegas []units.Mbps, x0 units.Seconds, startRung, gridN int) (float64, []int, error) {
	n := len(omegas)
	if n == 0 {
		return 0, nil, fmt.Errorf("core: empty horizon")
	}
	if gridN < 10 {
		return 0, nil, fmt.Errorf("core: grid too coarse (%d)", gridN)
	}
	nr := m.ladder.Len()
	bucketOf := func(x units.Seconds) int {
		b := int(float64(x) / float64(m.xmax) * float64(gridN-1))
		if b < 0 {
			b = 0
		}
		if b >= gridN {
			b = gridN - 1
		}
		return b
	}
	xOf := func(b int) units.Seconds { return units.Seconds(float64(b) / float64(gridN-1) * float64(m.xmax)) }

	const inf = math.MaxFloat64 / 4
	// value[t][r][b]: cost-to-go from the start of step t with previous rung
	// r (nr = "no previous rung") and buffer bucket b.
	value := make([][][]float64, n+1)
	choice := make([][][]int8, n)
	for t := 0; t <= n; t++ {
		value[t] = make([][]float64, nr+1)
		for r := 0; r <= nr; r++ {
			value[t][r] = make([]float64, gridN)
			if t < n {
				for b := range value[t][r] {
					value[t][r][b] = inf
				}
			}
		}
		if t < n {
			choice[t] = make([][]int8, nr+1)
			for r := 0; r <= nr; r++ {
				choice[t][r] = make([]int8, gridN)
				for b := range choice[t][r] {
					choice[t][r][b] = -1
				}
			}
		}
	}
	for t := n - 1; t >= 0; t-- {
		for r := 0; r <= nr; r++ {
			prev := r
			if r == nr {
				prev = -1
			}
			for b := 0; b < gridN; b++ {
				x := xOf(b)
				best := inf
				var bestR int8 = -1
				for next := 0; next < nr; next++ {
					c, x1, ok := m.stepCost(next, prev, x, omegas[t])
					if !ok {
						continue
					}
					tail := value[t+1][next][bucketOf(x1)]
					if c+tail < best {
						best = c + tail
						bestR = int8(next)
					}
				}
				value[t][r][b] = best
				choice[t][r][b] = bestR
			}
		}
	}
	startIdx := startRung
	if startRung < 0 {
		startIdx = nr
	}
	total := value[0][startIdx][bucketOf(x0)]
	if total >= inf {
		return 0, nil, fmt.Errorf("core: no feasible offline trajectory")
	}
	// Reconstruct the rung sequence, replaying exact (non-discretized) buffer
	// dynamics but following the DP policy.
	seq := make([]int, 0, n)
	x := x0
	prev := startIdx
	for t := 0; t < n; t++ {
		r := choice[t][prev][bucketOf(x)]
		if r < 0 {
			return 0, nil, fmt.Errorf("core: offline policy dead-ends at step %d", t)
		}
		seq = append(seq, int(r))
		_, x1, ok := m.stepCost(int(r), prevToRung(prev, nr), x, omegas[t])
		if !ok {
			// The discretized policy can brush the boundary; clamp.
			x1 = units.Seconds(math.Max(0, math.Min(float64(m.xmax), float64(m.nextBuffer(x, omegas[t], int(r))))))
		}
		x = x1
		prev = int(r)
	}
	return total, seq, nil
}

func prevToRung(idx, nr int) int {
	if idx == nr {
		return -1
	}
	return idx
}

// RecedingHorizonCost replays SODA's receding-horizon loop over a known
// bandwidth sequence with exact K-step predictions (ω̂ = ω) and returns the
// realized total cost of Equation 1 — the cost(SODA) side of the regret
// experiments. When terminal is true, each planning problem strengthens the
// pull toward the target buffer, approximating the Algorithm 2 terminal
// constraint.
func RecedingHorizonCost(m *CostModel, omegas []units.Mbps, x0 units.Seconds, k int, terminal bool) (float64, []int, error) {
	n := len(omegas)
	if n == 0 {
		return 0, nil, fmt.Errorf("core: empty horizon")
	}
	if k < 1 {
		k = 1
	}
	total := 0.0
	x := x0
	prev := -1
	seq := make([]int, 0, n)
	maxRung := m.ladder.Len() - 1
	for t := 0; t < n; t++ {
		h := k
		if t+h > n {
			h = n - t
		}
		window := omegas[t : t+h]
		var res solveResult
		if terminal && h > 1 {
			res = m.searchMonotonicTerminal(window, x, prev, h, maxRung)
		} else {
			res = m.searchMonotonic(window, x, prev, h, maxRung)
		}
		if res.rung < 0 {
			// Defensive fallback mirroring the controller: lowest rung.
			res.rung = 0
		}
		c, x1, ok := m.stepCost(res.rung, prev, x, omegas[t])
		if !ok {
			x1 = units.Seconds(math.Max(0, math.Min(float64(m.xmax), float64(m.nextBuffer(x, omegas[t], res.rung)))))
			c, _, _ = m.stepCostUnchecked(res.rung, prev, x, omegas[t])
		}
		total += c
		seq = append(seq, res.rung)
		x = x1
		prev = res.rung
	}
	return total, seq, nil
}

// stepCostUnchecked evaluates the step cost without the feasibility check,
// used only when replaying a committed decision whose realized buffer
// brushed the boundary.
func (m *costParams) stepCostUnchecked(rung, prevRung int, x0 units.Seconds, omega units.Mbps) (cost float64, x1 units.Seconds, feasible bool) {
	x1 = m.nextBuffer(x0, omega, rung)
	downloaded := omega.MegabitsIn(m.dt).AtRate(m.ladder.Mbps(rung))
	cost = m.v[rung]*float64(downloaded) + m.beta*m.bufferCost(x1)
	if prevRung >= 0 {
		dv := (m.v[rung] - m.v[prevRung]) * m.gapInv
		cost += m.gamma * dv * dv
	}
	return cost, x1, true
}

// searchMonotonicTerminal is the Algorithm 2 variant: monotone search with a
// terminal preference pulling the final buffer toward the target x̄. The
// indicator terminal cost of the theory is softened into a stiff quadratic so
// the discrete search remains total. It solves with its own copy of the
// parameters, since the model's may be shared and are never written.
func (m *CostModel) searchMonotonicTerminal(omegas []units.Mbps, x0 units.Seconds, prevRung, k, maxRung int) solveResult {
	p := *m.costParams
	// A stiffer pull toward the target approximates the terminal constraint
	// within the discrete search.
	p.beta *= 4
	term := CostModel{costParams: &p, stats: m.stats}
	res := term.searchMonotonic(omegas, x0, prevRung, k, maxRung)
	m.stats = term.stats
	return res
}

// NewCostModel exposes the internal cost model for the theory experiments
// and benches that need to evaluate Equation 1 directly. The returned model
// is not safe for concurrent use.
func NewCostModel(cfg Config, ladder video.Ladder, bufferCap units.Seconds) *CostModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newCostModel(cfg, ladder, bufferCap)
}

// SequenceCost evaluates Equation 1 for a committed rung sequence under
// per-step bandwidths, returning +Inf when the trajectory leaves the buffer
// range.
func (m *CostModel) SequenceCost(rungs []int, prevRung int, x0 units.Seconds, omegas []units.Mbps) float64 {
	return m.sequenceCost(rungs, prevRung, x0, omegas)
}
