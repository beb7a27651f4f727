// Package core implements SODA, the smoothness-optimized dynamic adaptive
// bitrate controller of the paper — the repository's primary contribution.
//
// SODA minimizes, over a prediction horizon of K fixed-duration time
// intervals, the time-based objective of §3.1 (Equation 1):
//
//	Σ  v(r_m)·(ω̂Δt/r_m)  +  β·b(x_m)  +  γ·c(r_m, r_{m-1})
//
// subject to the buffer dynamics x_m = x_{m-1} + ω̂Δt/r_m − Δt and the box
// constraint x ∈ [0, xmax], then commits only the first decision (§3.3).
// The buffer cost b steers the buffer toward a target level x̄ instead of
// penalizing rebuffering directly, which is the paper's key modelling choice.
//
// Two discrete solvers are provided: the brute-force reference (O(|R|^K))
// and the production solver of Algorithm 1, which searches only monotonic
// bitrate sequences (O(C(|R|+K, K))) and is near-optimal per Theorem 4.3.
// A continuous relaxation on u = 1/r backs the theory experiments
// (exponential decay of perturbations, monotone structure, regret vs. K).
package core

import (
	"fmt"
	"math"

	"repro/internal/units"
	"repro/internal/video"
)

// Distortion selects the distortion cost function v(r) of §3.1. Both choices
// are positive, strictly decreasing and convex in r, as the theory requires.
type Distortion int

const (
	// DistortionInverse is v(r) = 1/r, the paper's primary choice (§4).
	DistortionInverse Distortion = iota
	// DistortionLog is v(r) = log(rmax/r), the alternative discussed in
	// Appendix B.
	DistortionLog
)

// Config parameterizes a SODA controller.
type Config struct {
	// Horizon is K, the number of Δt intervals to plan over. Clamped so that
	// K·Δt never exceeds MaxHorizonSeconds (§5.2 limits predictions to 10 s).
	Horizon int
	// MaxHorizonSeconds caps the planning window in wall-clock terms.
	MaxHorizonSeconds units.Seconds
	// Beta weights the buffer-stability cost b(x).
	Beta float64
	// Gamma weights the switching cost c(r, r').
	Gamma float64
	// TargetBuffer is x̄, the buffer level the controller steers toward.
	// Zero means "derive from the buffer cap" (TargetFraction).
	TargetBuffer units.Seconds
	// TargetFraction sets x̄ = TargetFraction · xmax when TargetBuffer is 0.
	TargetFraction float64
	// Epsilon is the ε < 1 roll-off of the buffer cost above the target.
	Epsilon float64
	// Distortion selects v(r).
	Distortion Distortion
	// CapToThroughput enables the §5.1 heuristic restricting decisions to
	// min{r ∈ R : r ≥ ω̂} to avoid committing to a bitrate for much longer
	// than Δt.
	CapToThroughput bool
	// UseBruteForce switches the controller to the exponential reference
	// solver (for validation only; Algorithm 1 is the production path).
	UseBruteForce bool
	// DisablePruning turns off the branch-and-bound lower-bound cut in the
	// monotone solver, reverting to the plain monotone enumeration. The
	// committed decisions are identical either way (the bound is admissible);
	// the knob exists so ablations can isolate the pruning win.
	DisablePruning bool
	// Deprecated: SolveMemoSize is ignored. The per-controller decide memo
	// it sized is gone: a hit returned exactly what the shared cache or the
	// solver returns at the same quantized state. It stays while the
	// benchmark module still assigns it.
	SolveMemoSize int
	// MemoQuantum is the planning quantum: Decide rounds the buffer level
	// (seconds) and the throughput prediction (Mb/s) to the nearest multiple
	// of it and solves the planning problem at the rounded state, so every
	// decision is a pure function of the quantized key the shared cache and
	// the tables are indexed by (see DESIGN.md §5a). 0 plans at the exact
	// floats, which virtually never recur on real buffer trajectories, so
	// the shared cache then rarely hits.
	MemoQuantum float64
	// SharedCache optionally connects the controller to a fleet-wide solve
	// cache (see NewSolveCache), consulted after a table miss and before the
	// solver. The cache is keyed on the exact (possibly quantized) state
	// handed to the solver plus a model fingerprint, so decisions are
	// bit-identical with or without it — the shared-cache conformance
	// contract in internal/abrtest pins this. The same cache may be shared
	// by any number of controllers, including controllers with different
	// configurations (the fingerprint keeps them apart) and across sessions.
	// nil disables sharing.
	SharedCache *SolveCache
	// DecisionTable optionally connects the controller to a fleet-wide set of
	// compiled decision tables (see NewDecisionTables), consulted before the
	// shared cache. A table precomputes the committed decision for every
	// quantized (buffer, predicted throughput, previous rung) state inside
	// its domain; states outside it — session-tail horizons, buffers or
	// predictions off the grid, non-finite predictor outputs — fall back to
	// the ordinary solve path, never clamping into the table. Decisions are
	// bit-identical with the table on or off (the TableConformance contract
	// in internal/abrtest pins this). Like the shared cache, one set may back
	// controllers with different configurations: the table identity covers
	// the model fingerprint, the quantum, the steady-state horizon and the
	// §5.1 cap mode. nil disables tables.
	DecisionTable *DecisionTables
	// TableQuantum overrides MemoQuantum as the planning quantum of a
	// table-backed controller. Tables quantize both grid axes at this step,
	// so it trades table size and compile time against decision granularity;
	// the fleet experiments use 0.5 (0.5 s × 0.5 Mb/s cells). 0 means "use
	// MemoQuantum". Ignored when DecisionTable is nil.
	TableQuantum float64
}

// DefaultConfig returns the tuned production configuration used throughout
// the evaluation. The weights are expressed against the normalized distortion
// scale (see CostModel), so they transfer across bitrate ladders.
//
// The switching weight sits just above the duty-cycling threshold: when the
// available throughput falls between two rungs, a smaller gamma lets the
// controller oscillate between them (riding the buffer up and down around
// the target), while this gamma makes it park at the sustainable rung and
// absorb throughput jitter in the buffer — the "consistent quality"
// behaviour the paper optimizes for. The log distortion (Appendix B) is
// used because its near-uniform per-rung gaps keep that threshold stable
// across ladders; v(r) = 1/r compresses the top of the ladder so much that
// top-rung smoothness and bottom-rung recovery cannot share one gamma.
func DefaultConfig() Config {
	return Config{
		Horizon:           5,
		MaxHorizonSeconds: units.Seconds(10),
		Beta:              0.15,
		Gamma:             5,
		TargetFraction:    0.60,
		Epsilon:           0.2,
		Distortion:        DistortionLog,
		CapToThroughput:   true,
		MemoQuantum:       0.01,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Horizon < 1 {
		return fmt.Errorf("core: horizon %d < 1", c.Horizon)
	}
	if c.MaxHorizonSeconds <= 0 {
		return fmt.Errorf("core: non-positive MaxHorizonSeconds %v", c.MaxHorizonSeconds)
	}
	if c.Beta < 0 || c.Gamma < 0 {
		return fmt.Errorf("core: negative cost weight (beta=%v gamma=%v)", c.Beta, c.Gamma)
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v outside (0, 1)", c.Epsilon)
	}
	if c.TargetBuffer < 0 {
		return fmt.Errorf("core: negative target buffer %v", c.TargetBuffer)
	}
	if c.TargetBuffer == 0 && (c.TargetFraction <= 0 || c.TargetFraction >= 1) {
		return fmt.Errorf("core: target fraction %v outside (0, 1)", c.TargetFraction)
	}
	if c.Distortion != DistortionInverse && c.Distortion != DistortionLog {
		return fmt.Errorf("core: unknown distortion %d", int(c.Distortion))
	}
	if c.MemoQuantum < 0 {
		return fmt.Errorf("core: negative memo quantum %v", c.MemoQuantum)
	}
	if c.TableQuantum < 0 || math.IsInf(c.TableQuantum, 0) || math.IsNaN(c.TableQuantum) {
		return fmt.Errorf("core: invalid table quantum %v", c.TableQuantum)
	}
	if c.DecisionTable != nil && c.tableQuantum() <= 0 {
		return fmt.Errorf("core: decision table needs a positive quantum (TableQuantum or MemoQuantum)")
	}
	return nil
}

// CostModel precomputes the per-rung cost ingredients for one (ladder,
// buffer-cap) pair. Distortion values are normalized to [0, 1] across the
// ladder so Beta and Gamma transfer between ladders; the paper notes the
// cost function choices are flexible (§3.1).
type CostModel struct {
	ladder video.Ladder
	dt     units.Seconds
	xmax   units.Seconds
	target units.Seconds
	beta   float64
	gamma  float64
	eps    float64
	v      []float64 // normalized distortion per rung, v[0]=1 .. v[last]=0
	// gapInv is 1/mean-adjacent-gap of v. The switching cost uses
	// (Δv·gapInv)², so an adjacent-rung switch costs about gamma regardless
	// of how dense the ladder is; without this, a 10-rung production ladder
	// would make single-step switches nearly free while a 4-rung mobile
	// ladder makes them expensive, and no single gamma would transfer.
	gapInv float64
	// rate[i] is v[i]·Δt/mbps[i]: selecting rung i costs exactly ω̂·rate[i]
	// in distortion, before buffer and switching charges. rateMin[i] is the
	// prefix minimum over rungs j <= i — the cheapest per-unit-throughput
	// distortion any rung at or below i can achieve. Both feed the
	// admissible lower bounds of the branch-and-bound solver (buffer and
	// switching costs are non-negative and bounded by zero).
	rate    []float64
	rateMin []float64
	// noPrune disables the branch-and-bound cut (Config.DisablePruning).
	noPrune bool
	// scratch and stats are the solver's reusable search state and work
	// counters; like the model itself they are not safe for concurrent use.
	scratch solveScratch
	stats   SolveStats
}

func newCostModel(cfg Config, ladder video.Ladder, bufferCap units.Seconds) *CostModel {
	target := cfg.TargetBuffer
	if target == 0 {
		target = units.Seconds(cfg.TargetFraction * float64(bufferCap))
	}
	m := &CostModel{
		ladder: ladder,
		dt:     ladder.SegmentSeconds,
		xmax:   bufferCap,
		target: target,
		beta:   cfg.Beta,
		gamma:  cfg.Gamma,
		eps:    cfg.Epsilon,
		v:      make([]float64, ladder.Len()),
	}
	raw := func(r units.Mbps) float64 {
		switch cfg.Distortion {
		case DistortionLog:
			return math.Log(float64(ladder.Max() / r))
		default:
			return 1 / float64(r)
		}
	}
	lo, hi := raw(ladder.Max()), raw(ladder.Min())
	span := hi - lo
	for i := 0; i < ladder.Len(); i++ {
		if span > 0 {
			m.v[i] = (raw(ladder.Mbps(i)) - lo) / span
		} else {
			m.v[i] = 0
		}
	}
	// v spans [0, 1], so the mean adjacent gap is 1/(n-1).
	if n := ladder.Len(); n > 1 {
		m.gapInv = float64(n - 1)
	} else {
		m.gapInv = 1
	}
	m.noPrune = cfg.DisablePruning
	m.rate = make([]float64, ladder.Len())
	m.rateMin = make([]float64, ladder.Len())
	running := math.Inf(1)
	for i := 0; i < ladder.Len(); i++ {
		m.rate[i] = m.v[i] * float64(m.dt) / float64(ladder.Mbps(i))
		if m.rate[i] < running {
			running = m.rate[i]
		}
		m.rateMin[i] = running
	}
	return m
}

// bufferCost is b(x) of §3.1: a quadratic well around the target with a
// gentler ε roll-off above it.
func (m *CostModel) bufferCost(x units.Seconds) float64 {
	d := float64(x - m.target)
	if d <= 0 {
		return d * d
	}
	return m.eps * d * d
}

// nextBuffer advances the buffer dynamics one interval:
// x1 = x0 + ω̂Δt/r − Δt.
func (m *CostModel) nextBuffer(x0 units.Seconds, omega units.Mbps, rung int) units.Seconds {
	return x0 + omega.MegabitsIn(m.dt).AtRate(m.ladder.Mbps(rung)) - m.dt
}

// stepCost evaluates one term of the objective for selecting rung after
// prevRung (prevRung < 0 means "no previous bitrate": no switching cost).
// It returns the cost, the resulting buffer level, and whether the step is
// feasible.
//
// The two buffer boundaries are treated asymmetrically. Underflow (x1 < 0)
// is a hard infeasibility, exactly as in the paper's optimization (2c): the
// plan must never schedule a rebuffer. Overflow is clamped to xmax instead:
// a real player simply idles at the buffer cap, so a plan that would
// overfill is realizable by downloading less often. The paper's Assumption
// A.1 (ωmax ≤ rmax(1−δ)) rules this case out of the theory entirely, but
// in-the-wild throughput routinely exceeds the top rung, and treating
// overflow as infeasible would forbid the smooth "park at a sustainable rung
// and idle" behaviour the controller needs there.
func (m *CostModel) stepCost(rung, prevRung int, x0 units.Seconds, omega units.Mbps) (cost float64, x1 units.Seconds, feasible bool) {
	x1 = m.nextBuffer(x0, omega, rung)
	if x1 < 0 {
		return 0, x1, false
	}
	if x1 > m.xmax {
		x1 = m.xmax
	}
	// Seconds of video fetched in one interval.
	downloaded := omega.MegabitsIn(m.dt).AtRate(m.ladder.Mbps(rung))
	cost = m.v[rung]*float64(downloaded) + m.beta*m.bufferCost(x1)
	if prevRung >= 0 {
		dv := (m.v[rung] - m.v[prevRung]) * m.gapInv
		cost += m.gamma * dv * dv
	}
	return cost, x1, true
}

// sequenceCost evaluates a full K-step rung sequence from (x0, prevRung)
// under per-step bandwidth predictions, returning +Inf when any step is
// infeasible. Used by tests and the brute-force solver.
func (m *CostModel) sequenceCost(rungs []int, prevRung int, x0 units.Seconds, omegas []units.Mbps) float64 {
	total := 0.0
	x := x0
	prev := prevRung
	for i, r := range rungs {
		c, x1, ok := m.stepCost(r, prev, x, omegaAt(omegas, i))
		if !ok {
			return math.Inf(1)
		}
		total += c
		x = x1
		prev = r
	}
	return total
}
