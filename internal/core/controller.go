package core

import (
	"fmt"
	"math"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

// Policy is one controller configuration, validated once and shared by
// every controller seated on it: the configuration, the ladder, the planning
// quantum and the steady-state horizon. It holds no mutable state, so any
// number of controllers on any number of goroutines may share one, and
// nothing a session does can change it: what depends on a session's buffer
// cap — the cost parameters, their fingerprint and the decision table — is
// each controller's own binding (see Controller.bind).
type Policy struct {
	cfg    Config
	ladder video.Ladder
	// tq is the planning quantum Decide rounds its inputs to: TableQuantum
	// (or MemoQuantum) when a table is attached, MemoQuantum otherwise; 0
	// plans at exact floats.
	tq float64
	// k is the steady-state horizon (steadyHorizon), the horizon of every
	// decision short of a session's tail.
	k int
}

// NewPolicy validates cfg and builds the policy every controller of that
// configuration and ladder can be seated on.
func NewPolicy(cfg Config, ladder video.Ladder) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Policy{cfg: cfg, ladder: ladder, tq: cfg.MemoQuantum, k: steadyHorizon(cfg, ladder)}
	if cfg.DecisionTable != nil {
		p.tq = cfg.tableQuantum()
	}
	return p, nil
}

// bind returns the decision table (nil without tables) and the cost
// parameters for bufferCap. With tables, the set binds — compiling on first
// use — the table of the cap's identity and the parameters it was compiled
// with, shared by every controller of that identity; a stub, past the budget
// or for an oversized geometry, is private to this binding. Without tables,
// every call builds private parameters. Nothing is stored on the policy, so
// one session's cap never moves another session's binding.
func (p *Policy) bind(bufferCap units.Seconds) (*decisionTable, *costParams) {
	if tables := p.cfg.DecisionTable; tables != nil {
		t := tables.tableFor(modelFingerprint(p.cfg, p.ladder, bufferCap), p.cfg, p.ladder, bufferCap)
		return t, t.params
	}
	return nil, newCostParams(p.cfg, p.ladder, bufferCap)
}

// Controller is the SODA ABR controller. It is created per session, by New
// or by Init on a shared Policy, and implements abr.Controller. Controllers
// are not safe for concurrent use; each session gets its own instance.
type Controller struct {
	pol *Policy
	// t is the decision table bound for the current buffer cap, nil without
	// tables. model binds that cap's cost parameters — the table's when
	// there is one, private ones otherwise — to this controller's one set of
	// work counters, which also counts its table and shared-cache traffic.
	// The parameters carry the buffer cap they were bound for and the
	// fingerprint that scopes shared-cache keys, so a cap change re-binds
	// both.
	t     *decisionTable
	model CostModel
}

func init() {
	abr.Register("soda", func(l video.Ladder) abr.Controller {
		return New(DefaultConfig(), l)
	})
	abr.Register("soda-bruteforce", func(l video.Ladder) abr.Controller {
		cfg := DefaultConfig()
		cfg.UseBruteForce = true
		return New(cfg, l)
	})
}

// New constructs a SODA controller for the given ladder on a policy of its
// own: NewPolicy plus Init. It panics on an invalid config: configurations
// are program constants in every harness.
func New(cfg Config, ladder video.Ladder) *Controller {
	p, err := NewPolicy(cfg, ladder)
	if err != nil {
		panic(err)
	}
	return p.New()
}

// New returns a fresh controller seated on p. A harness whose sessions share
// one configuration builds the policy once and calls New per session, so a
// session allocates only its controller.
func (p *Policy) New() *Controller {
	c := new(Controller)
	c.Init(p)
	return c
}

// Init seats the controller on p, in place — the path for controllers held
// by value, in the fleet workers' controller slices and in soda-server's
// session entries, whose sessions all share one policy. It resets the
// binding and the counters and allocates nothing; the first Decide (or
// Prewarm) binds the cost parameters for its buffer cap. New is exactly
// NewPolicy plus Init, so a seated controller is bit-identical to a
// heap-allocated one by construction; abrtest.ArenaConformance pins this on
// one shared policy.
func (c *Controller) Init(p *Policy) {
	*c = Controller{pol: p}
}

// Prewarm eagerly binds what Decide would otherwise bind lazily on first
// use: the cost parameters for this buffer cap, and with them the decision
// table and shared-cache fingerprint. A table-backed controller shares the
// table's parameters, so its binding allocates nothing once the table is
// compiled; a controller without tables builds private ones. Decisions are
// unaffected — the same binding appears on first Decide either way — but a
// fleet that prewarms its sessions at setup pays the compile up front, and
// the solver keeps its search state on the stack, so the decide path is
// allocation-free from the first event.
func (c *Controller) Prewarm(bufferCap units.Seconds) {
	c.bind(bufferCap)
}

// Name implements abr.Controller.
func (c *Controller) Name() string { return "soda" }

// Reset implements abr.Controller. It does nothing: a decision is a pure
// function of its context and the configuration, and what a controller keeps
// between decisions — the cost parameters and table bound for the current
// buffer cap, and the work counters — never changes one.
func (c *Controller) Reset() {}

// SolveStats reports this controller's solver work and its table and
// shared-cache traffic. Counters accumulate across Decide calls, and across
// buffer-cap changes, until ResetSolveStats.
func (c *Controller) SolveStats() SolveStats { return c.model.stats }

// ResetSolveStats zeroes the solver, table and shared-cache work counters.
func (c *Controller) ResetSolveStats() { c.model.ResetSolveStats() }

// quantize rounds x to the nearest multiple of step (identity when step <= 0),
// preserving the unit type of its argument.
func quantize[T ~float64](x T, step float64) T {
	if step <= 0 {
		return x
	}
	return T(math.Round(float64(x)/step) * step)
}

// horizon returns the effective K for this decision: the policy's steady
// horizon (the configured horizon clamped by the 10-second
// prediction-validity cap, §5.2), clamped by the number of remaining
// segments.
func (c *Controller) horizon(ctx *abr.Context) int {
	k := c.pol.k
	if ctx.TotalSegments > 0 {
		if rem := ctx.TotalSegments - ctx.SegmentIndex; rem >= 1 && k > rem {
			k = rem
		}
	}
	return k
}

// bind returns the controller's cost model for bufferCap, re-binding its
// parameters — and with them the table and the shared-cache fingerprint —
// through the policy when the cap changes. The counters stay with the
// controller, so SolveStats never goes down when a session changes cap.
func (c *Controller) bind(bufferCap units.Seconds) *CostModel {
	if p := c.model.costParams; p == nil || p.xmax != bufferCap {
		c.t, c.model.costParams = c.pol.bind(bufferCap)
	}
	return &c.model
}

// Decide implements abr.Controller: solve the K-step predictive problem and
// commit the first decision (§3.3).
//
//soda:noalloc
func (c *Controller) Decide(ctx *abr.Context) abr.Decision {
	m := c.bind(ctx.BufferCap)
	p := c.pol

	// No room for another segment: idle until the buffer drains — the blank
	// no-download region of Fig. 5. (Player harnesses typically enforce this
	// themselves; the check keeps direct API use safe.)
	if over := ctx.Buffer + m.dt - ctx.BufferCap; over > 1e-9 {
		return abr.Wait(over)
	}

	// Plan at the state rounded to the quantum, so every decision is a pure
	// function of the table and shared-cache key: hits and misses agree by
	// construction, and replaying a context stream is order-independent.
	k := c.horizon(ctx)
	omega := quantize(ctx.PredictSafe(m.dt.Scale(float64(k))), p.tq)
	x0 := quantize(ctx.Buffer, p.tq)
	omegas := [1]units.Mbps{omega}

	maxRung := p.ladder.Len() - 1
	if p.cfg.CapToThroughput {
		// §5.1: never move *up* past min{r in R : r >= ω̂}, so the controller
		// cannot commit to a download that takes much longer than Δt. The
		// cap does not force down-switches below the current rung: sustained
		// throughput drops are handled by the buffer-stability cost, while
		// transient ω̂ dips ride on the buffer — forcing the cap on
		// down-moves would re-introduce exactly the prediction-jitter
		// switching SODA exists to avoid.
		maxRung = p.ladder.CapIndex(omega)
		if ctx.PrevRung > maxRung {
			maxRung = ctx.PrevRung
		}
	}

	// Compiled-table fast path: for in-domain states the committed decision
	// was precomputed by the identical solver path at this exact quantized
	// state, so the lookup is the whole decision. Out-of-domain states fall
	// through to the shared-cache/solver pipeline on the same quantized
	// values — the fallback is literally the table-free path.
	if t := c.t; t != nil {
		m.stats.TableLookups++
		if r, ok := t.lookup(x0, omega, ctx.PrevRung, k); ok {
			m.stats.TableHits++
			return abr.Decision{Rung: r}
		}
		m.stats.TableFallbacks++
	}

	// Then the fleet-wide cache. The key holds exactly the values the solver
	// below would receive, so a hit returns precisely what a miss would
	// compute — decisions are bit-identical with the shared cache on or off.
	var key cacheKey
	shared := p.cfg.SharedCache
	if shared != nil {
		key = cacheKey{
			fp: m.fp, x: x0, w: omega,
			prev: int32(ctx.PrevRung), k: int32(k), maxRung: int32(maxRung),
		}
		m.stats.SharedLookups++
		if r, ok := shared.get(key); ok {
			m.stats.SharedHits++
			return abr.Decision{Rung: int(r)}
		}
	}

	rung := solveFirstRung(m, p.cfg.UseBruteForce, omegas[:], x0, ctx.PrevRung, k, maxRung)
	if shared != nil {
		shared.put(key, int32(rung))
	}
	return abr.Decision{Rung: rung}
}

// solveFirstRung commits the first decision of the K-step predictive problem
// — the receding-horizon core shared by Decide and the decision-table
// compiler, so compiled cells are bit-identical to live solves by
// construction.
//
// With overflow clamped in the plan (see CostModel.stepCost), the only way
// every plan can be infeasible is buffer starvation: even r_min cannot keep
// the trajectory above zero over the full horizon. Shorter horizons are
// tried first (the tail of the plan is the unreachable part); a fully
// infeasible one-step problem falls back to the lowest rung, the fastest
// possible refill.
//
//soda:noalloc
func solveFirstRung(m *CostModel, bruteForce bool, omegas []units.Mbps, x0 units.Seconds, prevRung, k, maxRung int) int {
	for h := k; h >= 1; h-- {
		var res solveResult
		if bruteForce {
			res = m.bruteForce(omegas, x0, prevRung, h, maxRung)
		} else {
			res = m.searchMonotonic(omegas, x0, prevRung, h, maxRung)
		}
		if res.rung >= 0 {
			return res.rung
		}
	}
	return 0
}

// DiagramCell is one sample of the Figure 5 decision diagram.
type DiagramCell struct {
	Buffer units.Seconds
	Omega  units.Mbps
	// Rung is the committed decision, or -1 for the blank no-download region.
	Rung int
}

// DecisionDiagram evaluates SODA's decision over a (buffer level, predicted
// throughput) grid, reproducing Figure 5. prevRung seeds the switching cost;
// use -1 for the unconditioned diagram.
func DecisionDiagram(cfg Config, ladder video.Ladder, bufferCap units.Seconds,
	buffers []units.Seconds, omegas []units.Mbps, prevRung int) []DiagramCell {
	ctrl := New(cfg, ladder)
	cells := make([]DiagramCell, 0, len(buffers)*len(omegas))
	for _, b := range buffers {
		for _, w := range omegas {
			omega := w
			ctx := &abr.Context{
				Buffer:    b,
				BufferCap: bufferCap,
				PrevRung:  prevRung,
				Ladder:    ladder,
				Predict:   func(units.Seconds) units.Mbps { return omega },
			}
			d := ctrl.Decide(ctx)
			cells = append(cells, DiagramCell{Buffer: b, Omega: w, Rung: d.Rung})
		}
	}
	return cells
}

// RenderDiagram formats a decision diagram as an ASCII heat map with buffers
// as rows (descending) and throughputs as columns; rung indices print as
// digits and the no-download region as '.'.
func RenderDiagram(cells []DiagramCell, buffers []units.Seconds, omegas []units.Mbps) string {
	grid := make(map[[2]int]int, len(cells))
	bIndex := indexOf(buffers)
	wIndex := indexOf(omegas)
	for _, c := range cells {
		grid[[2]int{bIndex[c.Buffer], wIndex[c.Omega]}] = c.Rung
	}
	out := ""
	for bi := len(buffers) - 1; bi >= 0; bi-- {
		row := fmt.Sprintf("%6.1fs |", buffers[bi])
		for wi := range omegas {
			r, ok := grid[[2]int{bi, wi}]
			switch {
			case !ok:
				row += "?"
			case r < 0:
				row += "."
			default:
				row += fmt.Sprintf("%d", r)
			}
		}
		out += row + "\n"
	}
	out += "        +" + repeat("-", len(omegas)) + "\n"
	out += fmt.Sprintf("         ω̂: %.1f .. %.1f Mb/s\n", omegas[0], omegas[len(omegas)-1])
	return out
}

func indexOf[T comparable](xs []T) map[T]int {
	m := make(map[T]int, len(xs))
	for i, x := range xs {
		m[x] = i
	}
	return m
}

func repeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

// Grid returns n evenly spaced values covering [lo, hi] inclusive, preserving
// the unit type of the endpoints.
func Grid[T ~float64](lo, hi float64, n int) []T {
	if n < 2 {
		return []T{T(lo)}
	}
	out := make([]T, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = T(lo + float64(i)*step)
	}
	// Guard against accumulation error on the final point.
	out[n-1] = T(hi)
	return out
}

// MismatchStats is the outcome of the Figure 8 experiment: how often the
// monotonic solver's committed decision differs from brute force, with the
// monotone solver's work counters, so the Figure 8 driver can report the
// branch-and-bound win alongside the approximation quality.
type MismatchStats struct {
	Probability float64
	Samples     int
	// NodesPerSolve is the mean number of (rung, state) expansions the
	// monotone solver evaluated per planning problem.
	NodesPerSolve float64
	// PrunedPerSolve is the mean number of expansions cut by the bound.
	PrunedPerSolve float64
}

// MismatchProbabilityStats samples random planning situations and reports how
// often the monotonic solver's committed decision differs from brute force,
// with the monotone solver's per-solve work. Situations draw buffer uniformly
// in (0, cap), previous rung uniformly, and throughput uniformly in
// [rmin/2, 2·rmax].
func MismatchProbabilityStats(cfg Config, ladder video.Ladder, bufferCap units.Seconds, samples int, seed uint64) MismatchStats {
	if samples <= 0 {
		return MismatchStats{}
	}
	m := newCostModel(cfg, ladder, bufferCap)
	rng := newSplitMix(seed)
	mismatches := 0
	evaluated := 0
	maxRung := ladder.Len() - 1
	k := cfg.Horizon
	for i := 0; i < samples; i++ {
		x0 := units.Seconds(rng.float() * float64(bufferCap))
		prev := int(rng.float() * float64(ladder.Len()))
		if prev >= ladder.Len() {
			prev = ladder.Len() - 1
		}
		omegas := []units.Mbps{ladder.Min()/2 + units.Mbps(rng.float())*(2*ladder.Max()-ladder.Min()/2)}
		fast := m.searchMonotonic(omegas, x0, prev, k, maxRung)
		slow := m.bruteForce(omegas, x0, prev, k, maxRung)
		if fast.rung < 0 && slow.rung < 0 {
			continue // both infeasible: agreement by construction
		}
		evaluated++
		if fast.rung != slow.rung {
			// The committed decisions differ; only count real regressions
			// (identical objective means tie-breaking noise, not error).
			if math.Abs(fast.obj-slow.obj) > 1e-12 {
				mismatches++
			}
		}
	}
	st := m.SolveStats()
	out := MismatchStats{Samples: samples}
	if st.Solves > 0 {
		out.NodesPerSolve = float64(st.Nodes) / float64(st.Solves)
		out.PrunedPerSolve = float64(st.Pruned) / float64(st.Solves)
	}
	if evaluated > 0 {
		out.Probability = float64(mismatches) / float64(evaluated)
	}
	return out
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so MismatchProbabilityStats
// does not depend on math/rand ordering across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

var _ abr.Controller = (*Controller)(nil)
