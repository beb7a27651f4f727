package core

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

func TestDecisionTablesRejectBadBudget(t *testing.T) {
	for _, budget := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("budget %d: no panic", budget)
				}
			}()
			NewDecisionTablesSized(budget)
		}()
	}
}

// TestCompileTableGeometryAndIdempotence checks the eager compile pass: the
// grid must cover [0, cap] x [0, 2*max] at the quantum with one plane per
// previous rung (plus the no-previous plane), and recompiling the same
// identity must return the existing table instead of solving again.
func TestCompileTableGeometryAndIdempotence(t *testing.T) {
	tables := NewDecisionTables()
	cfg := DefaultConfig()
	cfg.TableQuantum = 0.5
	ladder := video.YouTube4K()

	info, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
	if err != nil {
		t.Fatal(err)
	}
	if info.Stub {
		t.Fatalf("default geometry compiled to a stub: %+v", info)
	}
	if info.Quantum != 0.5 || info.Horizon != 5 {
		t.Fatalf("quantum/horizon = %v/%d, want 0.5/5", info.Quantum, info.Horizon)
	}
	if want := int(math.Round(20/0.5)) + 1; info.XBins != want {
		t.Fatalf("xBins = %d, want %d", info.XBins, want)
	}
	if want := int(math.Ceil(2*float64(ladder.Max())/0.5)) + 1; info.WBins != want {
		t.Fatalf("wBins = %d, want %d", info.WBins, want)
	}
	if want := ladder.Len() + 1; info.Planes != want {
		t.Fatalf("planes = %d, want %d", info.Planes, want)
	}
	if info.Cells != info.XBins*info.WBins*info.Planes {
		t.Fatalf("cells = %d, want xBins*wBins*planes = %d", info.Cells, info.XBins*info.WBins*info.Planes)
	}

	st := tables.Stats()
	if st.Tables != 1 || st.Stubs != 0 || st.Cells != info.Cells || st.CompileSolves == 0 {
		t.Fatalf("stats after one compile: %s", st)
	}
	again, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
	if err != nil {
		t.Fatal(err)
	}
	if again != info {
		t.Fatalf("recompile returned a different table: %+v vs %+v", again, info)
	}
	if st2 := tables.Stats(); st2 != st {
		t.Fatalf("recompile changed the set: %s -> %s", st, st2)
	}
}

func TestCompileTableValidation(t *testing.T) {
	tables := NewDecisionTables()
	ladder := video.YouTube4K()
	bad := DefaultConfig()
	bad.Horizon = 0
	if _, err := tables.CompileTable(bad, ladder, units.Seconds(20)); err == nil {
		t.Error("invalid config accepted")
	}
	noQuantum := DefaultConfig()
	noQuantum.MemoQuantum = 0
	if _, err := tables.CompileTable(noQuantum, ladder, units.Seconds(20)); err == nil {
		t.Error("zero quantum accepted")
	}
	if _, err := tables.CompileTable(DefaultConfig(), video.Ladder{}, units.Seconds(20)); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := tables.CompileTable(DefaultConfig(), ladder, units.Seconds(0)); err == nil {
		t.Error("zero cap accepted")
	}
}

// tableTestConfig is the table-backed configuration the domain tests run:
// defaults plus the given set at quantum 0.5.
func tableTestConfig(tables *DecisionTables) Config {
	cfg := DefaultConfig()
	cfg.DecisionTable = tables
	cfg.TableQuantum = 0.5
	return cfg
}

// plainTestConfig is the matching table-free reference: same quantization
// step through MemoQuantum, so both controllers solve identical states.
func plainTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MemoQuantum = 0.5
	return cfg
}

// TestDecisionTableFallbackDomain drives states just outside the table's
// domain — buffer past the cap edge or negative, throughput beyond 2x the
// ladder top, non-finite predictions, session-tail horizons — and checks
// each one falls back to the solver (fallback counter up, solver ran) while
// still deciding exactly as the table-free controller does. States are never
// clamped into the table: a clamp would change the decision and break the
// bit-equality below. In-domain rows pin the complement: a table hit, no
// solve, same decision.
func TestDecisionTableFallbackDomain(t *testing.T) {
	ladder := video.YouTube4K() // top rung 60 => throughput domain [0, 120]
	wMax := 2 * float64(ladder.Max())
	cases := []struct {
		name     string
		buffer   float64
		omega    float64
		prev     int
		segment  int // of 600
		fallback bool
	}{
		{"in-domain-mid", 8, 12, 2, 10, false},
		{"in-domain-origin", 0, 0.2, -1, 0, false},
		{"in-domain-buffer-edge", 17.9, 30, 4, 10, false},
		{"in-domain-throughput-edge", 3, wMax - 0.1, 5, 10, false}, // quantizes to exactly 2x top
		{"throughput-past-domain", 3, wMax + 0.3, 5, 10, true},
		{"throughput-absurd", 3, 1e9, 5, 10, true},
		{"throughput-nan", 8, math.NaN(), 2, 10, true},
		{"throughput-inf", 8, math.Inf(1), 2, 10, true},
		{"buffer-negative", -0.3, 12, 2, 10, true},
		{"session-tail-horizon", 8, 12, 2, 598, true}, // 2 segments left => k=2, table holds k=5
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tables := NewDecisionTables()
			tabled := New(tableTestConfig(tables), ladder)
			plain := New(plainTestConfig(), ladder)
			omega := units.Mbps(tc.omega)
			ctx := func() *abr.Context {
				return &abr.Context{
					Buffer:        units.Seconds(tc.buffer),
					BufferCap:     units.Seconds(20),
					PrevRung:      tc.prev,
					Ladder:        ladder,
					SegmentIndex:  tc.segment,
					TotalSegments: 600,
					Predict:       func(units.Seconds) units.Mbps { return omega },
				}
			}
			got, want := tabled.Decide(ctx()), plain.Decide(ctx())
			if got != want {
				t.Fatalf("tabled decision %+v != plain %+v", got, want)
			}
			st := tabled.SolveStats()
			if st.TableLookups != 1 {
				t.Fatalf("table lookups = %d, want 1", st.TableLookups)
			}
			if tc.fallback {
				if st.TableFallbacks != 1 || st.TableHits != 0 {
					t.Fatalf("fallbacks/hits = %d/%d, want 1/0", st.TableFallbacks, st.TableHits)
				}
				if st.Solves == 0 {
					t.Fatal("fallback state never reached the solver")
				}
			} else {
				if st.TableHits != 1 || st.TableFallbacks != 0 {
					t.Fatalf("hits/fallbacks = %d/%d, want 1/0", st.TableHits, st.TableFallbacks)
				}
				if st.Solves != 0 {
					t.Fatalf("in-domain state solved %d problems despite the table", st.Solves)
				}
			}
		})
	}
}

// TestDecisionTableStubsAndBudget checks the two degrade-to-fallback paths:
// a geometry too large for maxTableCells and a binding past the set's table
// budget both produce stubs — controllers keep deciding exactly like the
// table-free path, with every lookup a fallback — instead of failing or
// compiling unboundedly (the httpseg cap-churn defence). Each case binds its
// stub identity twice, once through CompileTable and once through a
// controller; the set keeps no stub, so both bindings count as stubs.
func TestDecisionTableStubsAndBudget(t *testing.T) {
	ladder := video.YouTube4K()

	t.Run("oversized-geometry", func(t *testing.T) {
		tables := NewDecisionTables()
		cfg := DefaultConfig() // MemoQuantum 0.01 is the table quantum here
		cfg.DecisionTable = tables
		hugeCap := units.Seconds(1e6)
		info, err := tables.CompileTable(cfg, ladder, hugeCap)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Stub || info.Cells != 0 {
			t.Fatalf("absurd geometry compiled: %+v", info)
		}
		plainCfg := DefaultConfig()
		tabled, plain := New(cfg, ladder), New(plainCfg, ladder)
		stream := contextStreamAt(ladder, hugeCap, 777, 50)
		for i := range stream {
			if got, want := tabled.Decide(stream[i]), plain.Decide(stream[i]); got != want {
				t.Fatalf("decision %d: stubbed %+v != plain %+v", i, got, want)
			}
		}
		st := tabled.SolveStats()
		if st.TableLookups == 0 || st.TableHits != 0 || st.TableFallbacks != st.TableLookups {
			t.Fatalf("stub traffic books: %d lookups, %d hits, %d fallbacks",
				st.TableLookups, st.TableHits, st.TableFallbacks)
		}
		if ts := tables.Stats(); ts.Tables != 0 || ts.Stubs != 2 {
			t.Fatalf("set stats after oversized bind: %s", ts)
		}
	})

	t.Run("budget-exhausted", func(t *testing.T) {
		tables := NewDecisionTablesSized(1)
		cfg := tableTestConfig(tables)
		first, err := tables.CompileTable(cfg, ladder, units.Seconds(20))
		if err != nil {
			t.Fatal(err)
		}
		if first.Stub {
			t.Fatalf("first bind stubbed: %+v", first)
		}
		second, err := tables.CompileTable(cfg, ladder, units.Seconds(15))
		if err != nil {
			t.Fatal(err)
		}
		if !second.Stub {
			t.Fatal("bind past the budget compiled a second table")
		}
		tabled, plain := New(cfg, ladder), New(plainTestConfig(), ladder)
		stream := contextStreamAt(ladder, units.Seconds(15), 778, 50)
		for i := range stream {
			if got, want := tabled.Decide(stream[i]), plain.Decide(stream[i]); got != want {
				t.Fatalf("decision %d: over-budget %+v != plain %+v", i, got, want)
			}
		}
		if ts := tables.Stats(); ts.Tables != 1 || ts.Stubs != 2 {
			t.Fatalf("set stats after budget exhaustion: %s", ts)
		}
	})
}

// TestDecisionTableCapChurnBounded binds 10,000 distinct buffer caps — the
// identities a /decide client mints with cap= — to a one-table set: the set
// must hold at most its one compiled table, not a stub per cap.
func TestDecisionTableCapChurnBounded(t *testing.T) {
	ladder := video.Prototype()
	tables := NewDecisionTablesSized(1)
	cfg := tableTestConfig(tables)
	for i := 0; i < 10000; i++ {
		if _, err := tables.CompileTable(cfg, ladder, units.Seconds(4+float64(i)*1e-3)); err != nil {
			t.Fatal(err)
		}
	}
	tables.mu.Lock()
	held := len(tables.tables)
	tables.mu.Unlock()
	if held > 1 {
		t.Fatalf("set holds %d entries after 10000 cap bindings, want at most 1", held)
	}
	if ts := tables.Stats(); ts.Tables != 1 || ts.Stubs != 9999 {
		t.Fatalf("set stats after cap churn: %s, want 1 table and 9999 stub bindings", ts)
	}
}

// contextStreamAt is a deterministic legal context stream at an arbitrary
// buffer cap (the abrtest helper is fixed at 20 s).
func contextStreamAt(ladder video.Ladder, bufferCap units.Seconds, seed uint64, n int) []*abr.Context {
	rng := newSplitMix(seed)
	out := make([]*abr.Context, n)
	prev := abr.NoRung
	for i := range out {
		omega := units.Mbps(0.3 + rng.float()*2.2*float64(ladder.Max()))
		out[i] = &abr.Context{
			Buffer:        units.Seconds(rng.float() * float64(bufferCap)),
			BufferCap:     bufferCap,
			PrevRung:      prev,
			Ladder:        ladder,
			SegmentIndex:  i,
			TotalSegments: n,
			Predict:       func(units.Seconds) units.Mbps { return omega },
		}
		prev = int(rng.float() * float64(ladder.Len()))
	}
	return out
}

// TestDecisionTableIdentitySeparation pins the table-identity contract: the
// model fingerprint deliberately excludes the quantum, the horizon and the
// §5.1 cap mode (they are state-key concerns for the caches), so the table
// identity must mix them back in — configurations agreeing on the
// fingerprint but differing in any of the three must get distinct tables.
func TestDecisionTableIdentitySeparation(t *testing.T) {
	tables := NewDecisionTables()
	ladder := video.YouTube4K()
	cap20 := units.Seconds(20)

	base := DefaultConfig()
	base.TableQuantum = 0.5
	fineQuantum := withCfg(base, func(c *Config) { c.TableQuantum = 0.25 })
	shortHorizon := withCfg(base, func(c *Config) { c.Horizon = 3 })
	noCap := withCfg(base, func(c *Config) { c.CapToThroughput = false })

	// Precondition: all three agree with base on the model fingerprint —
	// otherwise this test would silently stop covering the identity bits.
	fp := modelFingerprint(base, ladder, cap20)
	variants := []struct {
		name string
		cfg  Config
	}{{"quantum", fineQuantum}, {"horizon", shortHorizon}, {"cap-mode", noCap}}
	for _, v := range variants {
		if modelFingerprint(v.cfg, ladder, cap20) != fp {
			t.Fatalf("%s variant changed the model fingerprint; identity coverage lost", v.name)
		}
	}

	want := 0
	for _, cfg := range []Config{base, fineQuantum, shortHorizon, noCap, base /* repeat: no new table */} {
		if _, err := tables.CompileTable(cfg, ladder, cap20); err != nil {
			t.Fatal(err)
		}
		if want < 4 {
			want++
		}
		if st := tables.Stats(); st.Tables != want {
			t.Fatalf("tables = %d, want %d: %s", st.Tables, want, st)
		}
	}
}

// FuzzDecisionTableKey hammers quantization and identity keying at the
// table's domain edges: buffers at and beyond the cap (and negative),
// throughputs around 2x the ladder top, NaN/Inf predictor outputs, and
// session-tail horizons, across four configurations sharing one table set —
// including pairs that agree on the model fingerprint and differ only in
// quantum or horizon, the cross-contamination cases the identity bits exist
// for. Every decision must either agree exactly with the table-free
// controller at the same quantum (hit or fallback alike) or be a wait taken
// before the table; the traffic books must always balance.
func FuzzDecisionTableKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	// Domain-edge walk under one configuration: buffer bins around the cap,
	// throughput bins around 2x the top rung.
	f.Add([]byte{0x20, 0x00, 0x24, 0x10, 0x2c, 0x20, 0x2d, 0x30, 0x2e, 0x40})
	// The same edge states visited by every configuration in turn — the
	// fingerprint/quantum/horizon aliasing probe.
	f.Add([]byte{0x2c, 0x05, 0x6c, 0x05, 0xac, 0x05, 0xec, 0x05})
	// Non-finite predictions and negative buffers.
	f.Add([]byte{0x3f, 0x00, 0x7f, 0x10, 0xbf, 0x20, 0xff, 0x30, 0x3e, 0x77})

	type combo struct {
		tabled, plain Config
		ladder        video.Ladder
		cap           units.Seconds
	}
	tables := NewDecisionTables()
	mk := func(mutate func(*Config), quantum float64, ladder video.Ladder, cap units.Seconds) combo {
		tc := DefaultConfig()
		mutate(&tc)
		tc.DecisionTable = tables
		tc.TableQuantum = quantum
		pc := DefaultConfig()
		mutate(&pc)
		pc.MemoQuantum = quantum
		return combo{tabled: tc, plain: pc, ladder: ladder, cap: cap}
	}
	noop := func(*Config) {}
	combos := [4]combo{
		mk(noop, 0.5, video.YouTube4K(), units.Seconds(20)),
		mk(noop, 0.5, video.Mobile(), units.Seconds(12)),
		// Same model fingerprint as combo 0, different quantum.
		mk(noop, 0.25, video.YouTube4K(), units.Seconds(20)),
		// Same model fingerprint as combo 0, different steady horizon.
		mk(func(c *Config) { c.Horizon = 3 }, 0.5, video.YouTube4K(), units.Seconds(20)),
	}
	// Buffer as a fraction of the cap and throughput as a fraction of the
	// ladder top; both lists straddle their domain edge and include the
	// illegal-side values the table must refuse, never clamp.
	bufFrac := [8]float64{0, 0.013, 0.25, 0.45, 0.7, 0.89, 1.0, -0.02}
	omFrac := [8]float64{0.001, 0.5, 1.0, 1.9, 2.0, 2.1, math.Inf(1), math.NaN()}

	f.Fuzz(func(t *testing.T, ops []byte) {
		var tabled, plain [len(combos)]*Controller
		for i, cb := range combos {
			tabled[i] = New(cb.tabled, cb.ladder)
			plain[i] = New(cb.plain, cb.ladder)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			// Two bytes per decision: configuration, buffer and throughput
			// selectors in the first; previous rung and segments-remaining
			// (the horizon tail) in the second.
			b1, b2 := ops[i], ops[i+1]
			ci := int(b1 >> 6 & 3)
			cb := combos[ci]
			buffer := units.Seconds(bufFrac[b1>>3&7] * float64(cb.cap))
			omega := units.Mbps(omFrac[b1&7] * float64(cb.ladder.Max()))
			prev := int(b2%uint8(cb.ladder.Len()+1)) - 1
			const total = 600
			segment := total - 1 - int(b2>>4&7) // 1..8 segments remaining
			ctx := func() *abr.Context {
				return &abr.Context{
					Buffer:        buffer,
					BufferCap:     cb.cap,
					PrevRung:      prev,
					Ladder:        cb.ladder,
					SegmentIndex:  segment,
					TotalSegments: total,
					Predict:       func(units.Seconds) units.Mbps { return omega },
				}
			}
			before := tabled[ci].SolveStats()
			got, want := tabled[ci].Decide(ctx()), plain[ci].Decide(ctx())
			if got != want {
				t.Fatalf("op %d (combo %d, buffer %v, omega %v, prev %d, segment %d): tabled %+v != plain %+v",
					i/2, ci, buffer, omega, prev, segment, got, want)
			}
			d := tabled[ci].SolveStats().Delta(before)
			if d.TableLookups > 1 || d.TableHits+d.TableFallbacks != d.TableLookups {
				t.Fatalf("op %d: table books broken: %d lookups, %d hits, %d fallbacks",
					i/2, d.TableLookups, d.TableHits, d.TableFallbacks)
			}
			if d.TableHits > 0 && d.Solves > 0 {
				t.Fatalf("op %d: table hit also solved %d problems", i/2, d.Solves)
			}
		}
		st := tables.Stats()
		if st.Stubs != 0 {
			t.Fatalf("fuzz configurations must all compile, got stubs: %s", st)
		}
		if st.Tables > len(combos) {
			t.Fatalf("%d tables for %d configurations (identity churn): %s", st.Tables, len(combos), st)
		}
	})
}

// TestTableCompileStallsOnlyItsIdentity pins that a compile runs outside the
// set lock: while one session's large buffer cap compiles, a new controller
// binding an already-compiled table returns at once, and a second binder of
// the compiling identity waits for that one compile instead of starting
// another.
func TestTableCompileStallsOnlyItsIdentity(t *testing.T) {
	tables := NewDecisionTables()
	cfg := tableTestConfig(tables)
	ladder := video.Prototype()
	if _, err := tables.CompileTable(cfg, ladder, units.Seconds(20)); err != nil {
		t.Fatal(err)
	}
	solvesBefore := tables.Stats().CompileSolves

	const bigCap = units.Seconds(400)
	started := make(chan struct{})
	compiled := make(chan time.Time, 2)
	compileBig := func() {
		if _, err := tables.CompileTable(cfg, ladder, bigCap); err != nil {
			t.Error(err)
		}
		compiled <- time.Now()
	}
	compileStart := time.Now()
	go func() {
		close(started)
		compileBig()
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the compile take the identity
	go compileBig()                   // a second binder of the same identity

	bindStart := time.Now()
	New(cfg, ladder).Prewarm(units.Seconds(20))
	bindEnd := time.Now()
	firstDone, secondDone := <-compiled, <-compiled
	compileEnd := firstDone
	if secondDone.Before(compileEnd) {
		compileEnd = secondDone
	}
	if !bindEnd.Before(compileEnd) {
		t.Fatalf("binding a compiled table took %v and returned after the %v compile in flight ended",
			bindEnd.Sub(bindStart), compileEnd.Sub(compileStart))
	}
	if bind, compile := bindEnd.Sub(bindStart), compileEnd.Sub(compileStart); bind > compile/10 {
		t.Fatalf("binding a compiled table took %v during a %v compile, want under a tenth", bind, compile)
	}
	st := tables.Stats()
	info, err := tables.CompileTable(cfg, ladder, bigCap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 2 || info.Stub {
		t.Fatalf("after the large-cap compile: %s, large table %+v", st, info)
	}
	// The two binders of the large identity compiled it once.
	ref := NewDecisionTables()
	if _, err := ref.CompileTable(cfg, ladder, bigCap); err != nil {
		t.Fatal(err)
	}
	if got, once := st.CompileSolves-solvesBefore, ref.Stats().CompileSolves; got != once {
		t.Fatalf("large-cap binders solved %d problems, one compile solves %d", got, once)
	}
}

// TestTableBindingSharesParams pins what a seated controller holds and what
// it shares. Controllers on one policy — or on policies of one identity,
// as New builds — bound at the compiled cap share the table and the
// parameters it was compiled with, so seating a session and its first
// decision allocate nothing, at a table hit and at a fallback that runs the
// solver alike. A stub binding and a controller without tables build
// private parameters even on a shared policy, and a cap change moves only
// the binding of the session that made it; TableConformance and
// TestDecisionTableStubsAndBudget pin that all of them decide the same.
func TestTableBindingSharesParams(t *testing.T) {
	ladder := video.YouTube4K()
	const bufferCap = units.Seconds(20)
	tables := NewDecisionTablesSized(1)
	cfg := tableTestConfig(tables)
	if _, err := tables.CompileTable(cfg, ladder, bufferCap); err != nil {
		t.Fatal(err)
	}
	pol, err := NewPolicy(cfg, ladder)
	if err != nil {
		t.Fatal(err)
	}
	seat := func(p *Policy, at units.Seconds) *Controller {
		c := new(Controller)
		c.Init(p)
		c.Prewarm(at)
		return c
	}
	a, b, own := seat(pol, bufferCap), seat(pol, bufferCap), New(cfg, ladder)
	own.Prewarm(bufferCap)
	if a.pol != b.pol || own.pol == pol {
		t.Fatalf("policies %p, %p and %p: want the first two shared, New's its own", a.pol, b.pol, own.pol)
	}
	if a.t != b.t || a.t != own.t || a.t.stub {
		t.Fatalf("controllers of one identity bound tables %p, %p and %p (stub %v)", a.t, b.t, own.t, a.t.stub)
	}
	if p := a.t.params; p == nil || a.model.costParams != p || b.model.costParams != p || own.model.costParams != p {
		t.Fatalf("bound parameters %p, %p and %p, table's %p", a.model.costParams, b.model.costParams, own.model.costParams, p)
	}

	for _, tc := range []struct {
		name  string
		omega units.Mbps
		hit   bool
	}{
		{"table-hit", units.Mbps(30), true},
		{"fallback", units.Mbps(500), false}, // beyond 2x the 60 Mb/s top rung
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &abr.Context{
				Buffer:    units.Seconds(11),
				BufferCap: bufferCap,
				PrevRung:  3,
				Ladder:    ladder,
				Predict:   func(units.Seconds) units.Mbps { return tc.omega },
			}
			var c Controller
			allocs := testing.AllocsPerRun(20, func() {
				c.Init(pol)
				c.Decide(ctx)
			})
			if allocs != 0 {
				t.Errorf("Init plus the first Decide allocate %.1f times", allocs)
			}
			st := c.SolveStats()
			if hit := st.TableHits == 1; hit != tc.hit || st.TableLookups != 1 || (st.Solves > 0) == tc.hit {
				t.Fatalf("first decision's traffic %+v, want hit %v", st, tc.hit)
			}
			if c.t != a.t || c.model.costParams != a.t.params {
				t.Fatalf("seated controller bound table %p and parameters %p, want the shared %p and %p",
					c.t, c.model.costParams, a.t, a.t.params)
			}
		})
	}

	// Past the budget a binding gets a stub, whose parameters are its own,
	// on the shared policy too; so does every binding without tables.
	stubA, stubB := seat(pol, units.Seconds(15)), seat(pol, units.Seconds(15))
	if !stubA.t.stub || !stubB.t.stub || stubA.t == stubB.t {
		t.Fatalf("bindings past the budget got tables %p and %p (stubs %v, %v), want private stubs",
			stubA.t, stubB.t, stubA.t.stub, stubB.t.stub)
	}
	plainPol, err := NewPolicy(plainTestConfig(), ladder)
	if err != nil {
		t.Fatal(err)
	}
	plainA, plainB := seat(plainPol, bufferCap), seat(plainPol, bufferCap)
	if plainA.t != nil || plainB.t != nil {
		t.Fatal("controllers without tables bound a table")
	}
	seen := map[*costParams]string{a.t.params: "the compiled table"}
	for _, c := range []struct {
		name string
		p    *costParams
	}{
		{"stub A", stubA.model.costParams}, {"stub B", stubB.model.costParams},
		{"tables-off A", plainA.model.costParams}, {"tables-off B", plainB.model.costParams},
	} {
		if c.p == nil {
			t.Fatalf("%s bound no parameters", c.name)
		}
		if other, ok := seen[c.p]; ok {
			t.Fatalf("%s shares its parameters with %s", c.name, other)
		}
		seen[c.p] = c.name
	}

	// A cap change re-binds only the session that made it: a moves to a
	// stub, b stays on the compiled table, and back at the compiled cap a
	// binds the shared table again.
	a.Prewarm(units.Seconds(15))
	if !a.t.stub || b.t != own.t || b.model.costParams != own.t.params {
		t.Fatalf("after a's cap change: a stub %v, b bound table %p and parameters %p, want %p and %p",
			a.t.stub, b.t, b.model.costParams, own.t, own.t.params)
	}
	a.Prewarm(bufferCap)
	if a.t != b.t || a.model.costParams != b.model.costParams {
		t.Fatalf("back at the compiled cap, a bound %p, want the shared %p", a.t, b.t)
	}
	if ts := tables.Stats(); ts.Tables != 1 {
		t.Fatalf("set holds %d tables after stub bindings, want 1", ts.Tables)
	}
}

// TestControllerLayout pins what a controller holds: its policy pointer,
// its binding for the current buffer cap and its one counter set. The
// configuration and the ladder live once on the shared Policy, so a fleet's
// or a server's sessions do not each carry a copy (272 B a controller when
// they did).
func TestControllerLayout(t *testing.T) {
	if got := unsafe.Sizeof(Controller{}); got > 112 {
		t.Errorf("a controller is %d B, want at most 112", got)
	}
}
