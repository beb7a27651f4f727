package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/units"
	"repro/internal/video"
)

// DecisionTables is a fleet-wide set of compiled decision tables shared by
// any number of controller instances (Config.DecisionTable). The paper's
// Fig. 5 decision diagram is the observation it exploits: for a fixed cost
// model the committed decision is a pure function of the quantized
// (buffer level, predicted throughput, previous rung) planning state, so the
// whole map can be compiled once — lazily on first bind, or eagerly via
// CompileTable — and the hot path becomes an O(1) array load with no locks,
// no hashing and no allocation.
//
// Identity and bit-identity. A table is keyed by the 64-bit model
// fingerprint of core/solvecache.go plus everything the fingerprint
// deliberately excludes but the compiled answers depend on: the quantization
// step, the steady-state horizon and the §5.1 throughput-cap mode. Cells are
// filled by the exact solver path Decide itself runs (solveFirstRung at the
// quantized state), so a table hit returns precisely what the solver would —
// the TableConformance contract in internal/abrtest pins this bit-for-bit,
// and FuzzDecisionTableKey hammers the keying at domain edges.
//
// Domain and fallback. A table covers buffer in [0, cap] and predicted
// throughput in [0, 2x the ladder's top rung] at its quantum, for the
// steady-state horizon only. Any state outside that box — session-tail
// horizons, out-of-range or non-finite predictions — falls through to the
// ordinary shared-cache/solver path untouched; states are never clamped
// into the table. Oversized geometries (absurd buffer caps at a fine
// quantum) and bindings past the table budget get a fallback-only stub
// instead of failing, so a hostile buffer cap cannot become a compile-time
// denial of service. The set keeps only the tables within its budget: a stub
// belongs to the binding that got it, so cap churn cannot grow the set
// either.
//
// A DecisionTables set is safe for concurrent use and is injected state: it
// holds no package-level variables and launches no goroutines, which keeps
// controllers wired to it purecontroller-clean (see DESIGN.md). A compile
// runs outside the set lock, so it stalls only the bindings of its own
// identity, never a controller binding an already-compiled table.
type DecisionTables struct {
	mu sync.Mutex
	// tables holds the compiled and compiling tables, at most maxTables.
	//soda:guard mu
	tables    map[uint64]*decisionTable
	maxTables int
	// compiled counts the identities compiled or compiling, against
	// maxTables.
	//soda:guard mu
	compiled int
	// stats totals the finished tables — a compile joins it once its cells
	// are filled — and counts stub bindings.
	//soda:guard mu
	stats TableStats
}

// DefaultMaxTables bounds how many distinct table identities one set will
// compile. A deployment serves a handful of (ladder, config, cap) tuples;
// the bound exists so identity churn (e.g. per-request buffer caps on a
// server) degrades to solver fallbacks, not unbounded memory.
const DefaultMaxTables = 64

// maxTableCells bounds one table's cell count (1-byte cells, so the largest
// table is ~8 MB). Geometries above it become fallback-only stubs.
const maxTableCells = 1 << 23

// tableThroughputSpan is the throughput domain's multiple of the ladder's
// top rung. Above the top rung the §5.1 cap pins the candidate set, but the
// buffer dynamics keep changing with the prediction, so the domain extends to
// 2x and everything beyond falls back to the solver (never clamped).
const tableThroughputSpan = 2.0

// NewDecisionTables builds an empty set with the default table budget.
func NewDecisionTables() *DecisionTables {
	return NewDecisionTablesSized(DefaultMaxTables)
}

// NewDecisionTablesSized is NewDecisionTables with an explicit budget on
// compiled tables; bindings past the budget get fallback-only stubs, which
// the set does not keep. It panics on a non-positive budget: table budgets
// are program constants in every harness, exactly like cache sizes.
func NewDecisionTablesSized(maxTables int) *DecisionTables {
	if maxTables <= 0 {
		panic(fmt.Sprintf("core: non-positive decision table budget %d", maxTables))
	}
	return &DecisionTables{
		tables:    make(map[uint64]*decisionTable),
		maxTables: maxTables,
	}
}

// decisionTable is one compiled table, immutable once ready is closed.
// rungs holds the committed first decision for every (prev+1, buffer bin,
// throughput bin) cell; a stub has no cells and answers every lookup with a
// fallback. params are the cost parameters the cells were compiled with, and
// carry the model fingerprint the table serves; every controller bound to
// the table solves its fallbacks with them, so an identity's sessions share
// one set instead of building their own.
type decisionTable struct {
	quantum         float64
	k               int32
	capToThroughput bool
	xBins           int32
	wBins           int32
	planes          int32
	rungs           []int8
	params          *costParams
	stub            bool
	// ready is closed once params and rungs are filled; nothing reads them
	// before. A stub has none: it is never stored, so no other binder waits
	// on it, and its params are private to the binding that got it.
	ready chan struct{}
}

// tableIdentity mixes the model fingerprint with the knobs the fingerprint
// excludes but the compiled answers (or the grid geometry) depend on. Two
// controllers share a table exactly when their identities match; the
// cross-contamination fuzzer drives configs that agree on the fingerprint
// but differ here.
func tableIdentity(fp uint64, quantum float64, k int, capToThroughput bool) uint64 {
	h := mix64(fp ^ 0xa24baed4963ee407)
	h = mix64(h ^ math.Float64bits(quantum))
	bits := uint64(uint32(k)) << 1
	if capToThroughput {
		bits |= 1
	}
	return mix64(h ^ bits)
}

// steadyHorizon is the effective planning horizon absent the
// remaining-segments clamp: the horizon every mid-session decision uses, and
// the one tables are compiled for. Controller.horizon layers the
// session-tail clamp on top; a tail decision's shorter horizon misses the
// table's k check and falls back.
func steadyHorizon(cfg Config, ladder video.Ladder) int {
	k := cfg.Horizon
	if maxK := int(cfg.MaxHorizonSeconds / ladder.SegmentSeconds); maxK >= 1 && k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}

// tableQuantum returns the quantization step a table-backed controller
// solves at: TableQuantum when set, else MemoQuantum. Config.Validate
// guarantees it is positive whenever a table is attached.
func (c Config) tableQuantum() float64 {
	if c.TableQuantum > 0 {
		return c.TableQuantum
	}
	return c.MemoQuantum
}

// tableFor returns the compiled table for the configuration, compiling it
// on first use. The first binder of an identity reserves it, and counts it
// against the budget, under the set lock, then builds its cost parameters
// and fills the cells outside it; later binders of that identity wait for
// that one compile and share its parameters. A binding past the budget, or
// of a geometry too large to compile, gets a fresh stub with private
// parameters that the set does not store, so every such binding counts in
// Stats().Stubs and none grows the set. fp must be
// modelFingerprint(cfg, ladder, bufferCap).
func (s *DecisionTables) tableFor(fp uint64, cfg Config, ladder video.Ladder, bufferCap units.Seconds) *decisionTable {
	q := cfg.tableQuantum()
	k := steadyHorizon(cfg, ladder)
	id := tableIdentity(fp, q, k, cfg.CapToThroughput)
	s.mu.Lock()
	if t, ok := s.tables[id]; ok {
		s.mu.Unlock()
		<-t.ready
		return t
	}
	t := &decisionTable{
		quantum:         q,
		k:               int32(k),
		capToThroughput: cfg.CapToThroughput,
		stub:            true,
	}
	if s.compiled >= s.maxTables || !t.planGeometry(ladder, bufferCap) {
		s.stats.Stubs++
		s.mu.Unlock()
		t.params = newCostParams(cfg, ladder, bufferCap)
		return t
	}
	s.compiled++
	t.stub = false
	t.ready = make(chan struct{})
	s.tables[id] = t
	s.mu.Unlock()
	defer close(t.ready)
	t.params = newCostParams(cfg, ladder, bufferCap)
	solves := t.compile(cfg, ladder)
	s.mu.Lock()
	s.stats.Tables++
	s.stats.Cells += len(t.rungs)
	s.stats.CompileSolves += solves
	s.mu.Unlock()
	return t
}

// planGeometry derives the grid from the ladder and buffer cap, reporting
// whether the table is compilable: a finite positive cap, a ladder that fits
// the 1-byte cell encoding, and a cell count within maxTableCells.
func (t *decisionTable) planGeometry(ladder video.Ladder, bufferCap units.Seconds) bool {
	cap64 := float64(bufferCap)
	if !(cap64 > 0) || math.IsInf(cap64, 0) || ladder.Len() == 0 || ladder.Len() > 127 {
		return false
	}
	xBins := math.Round(cap64/t.quantum) + 1
	wBins := math.Ceil(tableThroughputSpan*float64(ladder.Max())/t.quantum) + 1
	planes := float64(ladder.Len() + 1) // prev in {NoRung, 0, ..., len-1}
	if !(xBins >= 1) || !(wBins >= 1) || xBins*wBins*planes > maxTableCells {
		return false
	}
	t.xBins, t.wBins, t.planes = int32(xBins), int32(wBins), int32(planes)
	return true
}

// compile fills every cell with the decision the solver commits at that
// cell's exact quantized state, mirroring Decide's solver path bit for bit:
// the same quantized values (bin index times quantum — the identical
// expression quantize produces), the same §5.1 throughput cap, the same
// receding-horizon infeasibility fallback (solveFirstRung). It returns the
// number of planning problems solved. The table's parameters with private
// counters keep compilation work out of any controller's SolveStats.
func (t *decisionTable) compile(cfg Config, ladder video.Ladder) uint64 {
	m := CostModel{costParams: t.params}
	t.rungs = make([]int8, int(t.planes)*int(t.xBins)*int(t.wBins))
	var scratch [1]units.Mbps
	idx := 0
	for prev := -1; prev < ladder.Len(); prev++ {
		for xi := int32(0); xi < t.xBins; xi++ {
			x0 := units.Seconds(float64(xi) * t.quantum)
			for wi := int32(0); wi < t.wBins; wi++ {
				omega := units.Mbps(float64(wi) * t.quantum)
				maxRung := ladder.Len() - 1
				if cfg.CapToThroughput {
					maxRung = ladder.CapIndex(omega)
					if prev > maxRung {
						maxRung = prev
					}
				}
				scratch[0] = omega
				t.rungs[idx] = int8(solveFirstRung(&m, cfg.UseBruteForce, scratch[:], x0, prev, int(t.k), maxRung))
				idx++
			}
		}
	}
	return m.stats.Solves
}

// lookup returns the compiled decision for an already-quantized state, or a
// fallback. x and w are the values Decide quantized at this table's quantum,
// so dividing by the quantum recovers the bin index exactly (the value is a
// bin index times the quantum; the round shakes out the float error, which
// is orders of magnitude below half a bin). Out-of-domain, non-finite and
// session-tail states report a miss — never a clamped cell. The throughput
// cap needs no check: the cell was compiled with the cap derived from the
// cell's own (omega, prev), the same pure function Decide applies.
//
//soda:noalloc
func (t *decisionTable) lookup(x units.Seconds, w units.Mbps, prev, k int) (int, bool) {
	if t.stub || int32(k) != t.k {
		return 0, false
	}
	plane := int32(prev) + 1
	if plane < 0 || plane >= t.planes {
		return 0, false
	}
	xi := math.Round(float64(x) / t.quantum)
	if !(xi >= 0 && xi <= float64(t.xBins-1)) { // NaN and ±Inf fail too
		return 0, false
	}
	wi := math.Round(float64(w) / t.quantum)
	if !(wi >= 0 && wi <= float64(t.wBins-1)) {
		return 0, false
	}
	return int(t.rungs[(plane*t.xBins+int32(xi))*t.wBins+int32(wi)]), true
}

// info snapshots the table's shape for CompileTable and reports.
func (t *decisionTable) info() TableInfo {
	return TableInfo{
		Fingerprint: t.params.fp,
		Quantum:     t.quantum,
		Horizon:     int(t.k),
		XBins:       int(t.xBins),
		WBins:       int(t.wBins),
		Planes:      int(t.planes),
		Cells:       len(t.rungs),
		Stub:        t.stub,
	}
}

// TableInfo describes one compiled decision table.
type TableInfo struct {
	// Fingerprint is the model fingerprint the table serves.
	Fingerprint uint64
	// Quantum is the quantization step of both grid axes.
	Quantum float64
	// Horizon is the steady-state horizon the cells were solved at.
	Horizon int
	// XBins, WBins and Planes are the grid dimensions: buffer bins,
	// throughput bins and previous-rung planes (ladder size plus the
	// no-previous-rung plane).
	XBins, WBins, Planes int
	// Cells is the compiled cell count (0 for a stub).
	Cells int
	// Stub reports a fallback-only table: oversized geometry or a binding
	// past the set's table budget. The set does not keep stubs.
	Stub bool
}

// CompileTable eagerly compiles (or returns the already-compiled) table for
// the configuration, so harnesses can pay the compile cost at boot instead
// of on the first session's first decision. The config's own DecisionTable
// field is ignored — the receiver is the set compiled into.
func (s *DecisionTables) CompileTable(cfg Config, ladder video.Ladder, bufferCap units.Seconds) (TableInfo, error) {
	if err := cfg.Validate(); err != nil {
		return TableInfo{}, err
	}
	if cfg.tableQuantum() <= 0 {
		return TableInfo{}, fmt.Errorf("core: decision table needs a positive quantum (TableQuantum or MemoQuantum)")
	}
	if ladder.Len() == 0 {
		return TableInfo{}, fmt.Errorf("core: decision table needs a non-empty ladder")
	}
	if !(bufferCap > 0) {
		return TableInfo{}, fmt.Errorf("core: non-positive buffer cap %v", bufferCap)
	}
	fp := modelFingerprint(cfg, ladder, bufferCap)
	return s.tableFor(fp, cfg, ladder, bufferCap).info(), nil
}

// TableStats is a point-in-time snapshot of a set's compiled tables,
// surfaced through the soda-server gauges and experiment reports. Lookup,
// hit and fallback traffic is per-controller state (SolveStats) — the hot
// path touches no shared counters.
type TableStats struct {
	// Tables counts compiled tables. Stubs counts the bindings that got a
	// fallback-only stub: the set keeps no stubs, so every such binding
	// counts, including repeats of one identity.
	Tables int
	Stubs  int
	// Cells is the total compiled cell count across tables.
	Cells int
	// CompileSolves is the total planning problems solved compiling them.
	CompileSolves uint64
}

// String renders the one-line summary used by the experiment reports.
func (s TableStats) String() string {
	return fmt.Sprintf("tables %d (+%d stubs) cells %d compile-solves %d",
		s.Tables, s.Stubs, s.Cells, s.CompileSolves)
}

// Stats snapshots the set's finished tables; a table still compiling is
// counted once its cells are filled. Lookups never touch the set.
func (s *DecisionTables) Stats() TableStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
