package core

import (
	"fmt"
	"math"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

// Controller is the SODA ABR controller. It is created per session via New
// and implements abr.Controller. Controllers are not safe for concurrent use;
// each session gets its own instance.
type Controller struct {
	cfg     Config
	ladder  video.Ladder
	model   *CostModel // rebuilt lazily when the buffer cap changes
	capFor  units.Seconds
	scratch [1]units.Mbps // constant-prediction slice, reused across decisions

	// memo is the Decide-level decision cache: a direct-mapped, fixed-size
	// table keyed on the quantized planning state, valid across consecutive
	// receding-horizon ticks (the buffer moves slowly relative to the
	// quantum in steady state) and flushed on Reset and buffer cap changes.
	// nil when Config.SolveMemoSize is 0.
	memo        []memoEntry
	memoMask    uint32
	memoLookups uint64
	memoHits    uint64

	// shared is the optional fleet-wide solve cache (Config.SharedCache),
	// consulted after a local memo miss. fp is the model fingerprint that
	// scopes this controller's shared-cache keys; it is recomputed alongside
	// the cost model because it covers the buffer cap.
	shared        *SolveCache
	fp            uint64
	sharedLookups uint64
	sharedHits    uint64

	// tables is the optional fleet-wide compiled-table set
	// (Config.DecisionTable); table is the compiled table bound for the
	// current buffer cap, re-bound alongside the cost model. tq is the
	// quantization step in effect (TableQuantum when a table is attached,
	// MemoQuantum otherwise).
	tables         *DecisionTables
	table          *decisionTable
	tq             float64
	tableLookups   uint64
	tableHits      uint64
	tableFallbacks uint64
}

// memoEntry is one direct-mapped cache slot. The full (quantized) key is
// stored so hash collisions are detected and treated as misses.
type memoEntry struct {
	qx      units.Seconds
	qw      units.Mbps
	prev    int32
	k       int32
	maxRung int32
	rung    int32
	used    bool
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

// New constructs a SODA controller for the given ladder. It panics on an
// invalid config: configurations are program constants in every harness.
func New(cfg Config, ladder video.Ladder) *Controller {
	c := new(Controller)
	c.Init(cfg, ladder)
	return c
}

// Init initialises the controller in place — the path for controllers held
// by value, in the fleet's arena slabs and in soda-server's session entries.
// It runs exactly the construction New performs (New is Init on a fresh
// allocation), so an in-place controller is bit-identical to a
// heap-allocated one by construction; abrtest.ArenaConformance pins this.
// Like New, Init panics on an invalid config.
func (c *Controller) Init(cfg Config, ladder video.Ladder) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*c = Controller{cfg: cfg, ladder: ladder, shared: cfg.SharedCache, tables: cfg.DecisionTable}
	c.tq = cfg.MemoQuantum
	if c.tables != nil {
		c.tq = cfg.tableQuantum()
	}
	if cfg.SolveMemoSize > 0 {
		size := 1
		for size < cfg.SolveMemoSize {
			size <<= 1
		}
		c.memo = make([]memoEntry, size)
		c.memoMask = uint32(size - 1)
	}
}

// Prewarm eagerly binds everything Decide would otherwise build lazily on
// first use: the cost model for this buffer cap (and with it the decision
// table and shared-cache fingerprint) plus the solver scratch sized for the
// largest horizon this configuration can plan. Decisions are unaffected —
// the same structures appear on first Decide either way — but a fleet that
// prewarms its sessions at setup pays every per-session allocation up front
// and runs the steady decide path allocation-free from the first event.
func (c *Controller) Prewarm(bufferCap units.Seconds) {
	m := c.modelFor(bufferCap)
	k := c.cfg.Horizon
	if maxK := int(c.cfg.MaxHorizonSeconds / c.ladder.SegmentSeconds); maxK >= 1 && k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	m.scratch.ensure(k)
}

// Name implements abr.Controller.
func (c *Controller) Name() string { return "soda" }

// Reset implements abr.Controller. SODA keeps no cross-decision state beyond
// the previous rung (supplied in the context) and the decision memo, which
// must not leak across sessions and is flushed here.
func (c *Controller) Reset() {
	c.flushMemo()
}

func (c *Controller) flushMemo() {
	for i := range c.memo {
		c.memo[i] = memoEntry{}
	}
}

// SolveStats reports the solver work counters of the active cost model plus
// this controller's memo traffic. Counters accumulate across Decide calls
// until ResetSolveStats.
func (c *Controller) SolveStats() SolveStats {
	var s SolveStats
	if c.model != nil {
		s = c.model.stats
	}
	s.MemoLookups, s.MemoHits = c.memoLookups, c.memoHits
	s.SharedLookups, s.SharedHits = c.sharedLookups, c.sharedHits
	s.TableLookups, s.TableHits, s.TableFallbacks = c.tableLookups, c.tableHits, c.tableFallbacks
	return s
}

// ResetSolveStats zeroes the solver and memo work counters.
func (c *Controller) ResetSolveStats() {
	if c.model != nil {
		c.model.ResetSolveStats()
	}
	c.memoLookups, c.memoHits = 0, 0
	c.sharedLookups, c.sharedHits = 0, 0
	c.tableLookups, c.tableHits, c.tableFallbacks = 0, 0, 0
}

// quantize rounds x to the nearest multiple of step (identity when step <= 0),
// preserving the unit type of its argument.
func quantize[T ~float64](x T, step float64) T {
	if step <= 0 {
		return x
	}
	return T(math.Round(float64(x)/step) * step)
}

// memoHash mixes the key fields into a table index (SplitMix64 finalizer).
func memoHash(qx units.Seconds, qw units.Mbps, prev, k, maxRung int) uint32 {
	z := math.Float64bits(float64(qx))*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z ^= math.Float64bits(float64(qw)) + (z << 6) + (z >> 2)
	z ^= uint64(prev+1) + (z << 6) + (z >> 2)
	z ^= uint64(k) + (z << 6) + (z >> 2)
	z ^= uint64(maxRung) + (z << 6) + (z >> 2)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z>>32) ^ uint32(z)
}

// horizon returns the effective K for this decision: the configured horizon,
// clamped by the 10-second prediction-validity cap (§5.2) and by the number
// of remaining segments.
func (c *Controller) horizon(ctx *abr.Context) int {
	k := c.cfg.Horizon
	if maxK := int(c.cfg.MaxHorizonSeconds / c.ladder.SegmentSeconds); maxK >= 1 && k > maxK {
		k = maxK
	}
	if ctx.TotalSegments > 0 {
		if rem := ctx.TotalSegments - ctx.SegmentIndex; rem >= 1 && k > rem {
			k = rem
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (c *Controller) modelFor(bufferCap units.Seconds) *CostModel {
	if c.model == nil || c.capFor != bufferCap {
		// The solver counters live on the model; carry them across the
		// rebuild so SolveStats never goes down when a session changes cap.
		var stats SolveStats
		if c.model != nil {
			stats = c.model.stats
		}
		c.model = newCostModel(c.cfg, c.ladder, bufferCap)
		c.model.stats = stats
		c.capFor = bufferCap
		// The memo key does not include the buffer cap (it is fixed per
		// session in every harness), so a cap change invalidates the cache.
		c.flushMemo()
		if c.shared != nil || c.tables != nil {
			// The shared-cache key and the table identity must include the
			// cap, and do so through the fingerprint — which therefore tracks
			// the model rebuilds.
			c.fp = modelFingerprint(c.cfg, c.ladder, bufferCap)
		}
		if c.tables != nil {
			// Bind (compiling on first use) the table for the new cap.
			c.table = c.tables.tableFor(c.fp, c.cfg, c.ladder, bufferCap)
		}
	}
	return c.model
}

// Decide implements abr.Controller: solve the K-step predictive problem and
// commit the first decision (§3.3).
//
//soda:noalloc
func (c *Controller) Decide(ctx *abr.Context) abr.Decision {
	m := c.modelFor(ctx.BufferCap)

	// No room for another segment: idle until the buffer drains — the blank
	// no-download region of Fig. 5. (Player harnesses typically enforce this
	// themselves; the check keeps direct API use safe.)
	if over := ctx.Buffer + m.dt - ctx.BufferCap; over > 1e-9 {
		return abr.Wait(over)
	}

	k := c.horizon(ctx)
	omega := ctx.PredictSafe(m.dt.Scale(float64(k)))
	x0 := ctx.Buffer
	if c.memo != nil || c.table != nil {
		// Solve at the quantized state so the cached (or compiled) decision
		// is a pure function of the memo/table key: hits and misses agree by
		// construction, and replaying a context stream is order-independent.
		omega = quantize(omega, c.tq)
		x0 = quantize(x0, c.tq)
	}
	c.scratch[0] = omega
	omegas := c.scratch[:]

	maxRung := c.ladder.Len() - 1
	if c.cfg.CapToThroughput {
		// §5.1: never move *up* past min{r in R : r >= ω̂}, so the controller
		// cannot commit to a download that takes much longer than Δt. The
		// cap does not force down-switches below the current rung: sustained
		// throughput drops are handled by the buffer-stability cost, while
		// transient ω̂ dips ride on the buffer — forcing the cap on
		// down-moves would re-introduce exactly the prediction-jitter
		// switching SODA exists to avoid.
		maxRung = c.ladder.CapIndex(omega)
		if ctx.PrevRung > maxRung {
			maxRung = ctx.PrevRung
		}
	}

	// Compiled-table fast path: for in-domain states the committed decision
	// was precomputed by the identical solver path at this exact quantized
	// state, so the lookup is the whole decision. Out-of-domain states fall
	// through to the memo/shared-cache/solver pipeline on the same quantized
	// values — the fallback is literally the table-free path.
	if c.table != nil {
		c.tableLookups++
		if r, ok := c.table.lookup(x0, omega, ctx.PrevRung, k); ok {
			c.tableHits++
			return abr.Decision{Rung: r}
		}
		c.tableFallbacks++
	}

	var entry *memoEntry
	if c.memo != nil {
		c.memoLookups++
		h := memoHash(x0, omega, ctx.PrevRung, k, maxRung)
		entry = &c.memo[h&c.memoMask]
		if entry.used && entry.qx == x0 && entry.qw == omega &&
			entry.prev == int32(ctx.PrevRung) && entry.k == int32(k) &&
			entry.maxRung == int32(maxRung) {
			c.memoHits++
			return abr.Decision{Rung: int(entry.rung)}
		}
	}

	// After a local memo miss, consult the fleet-wide cache. The key holds
	// exactly the values the solver below would receive, so a hit returns
	// precisely what a miss would compute — decisions are bit-identical with
	// the shared cache on or off. A hit also back-fills the local memo slot,
	// keeping subsequent ticks of this session off the shared mutexes.
	var key cacheKey
	if c.shared != nil {
		key = cacheKey{
			fp: c.fp, x: x0, w: omega,
			prev: int32(ctx.PrevRung), k: int32(k), maxRung: int32(maxRung),
		}
		c.sharedLookups++
		if r, ok := c.shared.get(key); ok {
			c.sharedHits++
			if entry != nil {
				*entry = memoEntry{
					qx: x0, qw: omega,
					prev: int32(ctx.PrevRung), k: int32(k), maxRung: int32(maxRung),
					rung: r, used: true,
				}
			}
			return abr.Decision{Rung: int(r)}
		}
	}

	rung := solveFirstRung(m, c.cfg.UseBruteForce, omegas, x0, ctx.PrevRung, k, maxRung)
	if entry != nil {
		*entry = memoEntry{
			qx: x0, qw: omega,
			prev: int32(ctx.PrevRung), k: int32(k), maxRung: int32(maxRung),
			rung: int32(rung), used: true,
		}
	}
	if c.shared != nil {
		c.shared.put(key, int32(rung))
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

// MismatchProbability samples random planning situations and reports how
// often the monotonic solver's committed decision differs from brute force —
// the Figure 8 experiment. Situations draw buffer uniformly in (0, cap),
// previous rung uniformly, and throughput uniformly in [rmin/2, 2·rmax].
func MismatchProbability(cfg Config, ladder video.Ladder, bufferCap units.Seconds, samples int, seed uint64) float64 {
	return MismatchProbabilityStats(cfg, ladder, bufferCap, samples, seed).Probability
}

// MismatchStats extends MismatchProbability with the monotone solver's work
// counters, so the Figure 8 drivers and benchmarks can report the
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

// MismatchProbabilityStats runs the Figure 8 sampling and also reports the
// monotone solver's per-solve work.
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

// splitMix is a tiny deterministic PRNG (SplitMix64) so MismatchProbability
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
