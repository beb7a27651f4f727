package abrtest

import (
	"sync/atomic"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/video"

	_ "repro/internal/baseline"
)

// TestAllRegisteredControllersConform runs the conformance suite over every
// controller in the registry — SODA and all baselines.
func TestAllRegisteredControllersConform(t *testing.T) {
	for _, name := range abr.Names() {
		if name == "test-fake" || name == "test-dup" {
			continue // registrations leaked from other packages' tests
		}
		name := name
		Conformance(t, name, func(ladder video.Ladder) abr.Controller {
			c, err := abr.New(name, ladder)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
	}
}

// sodaPlain builds the registry-default SODA controller.
func sodaPlain(ladder video.Ladder) abr.Controller {
	c, err := abr.New("soda", ladder)
	if err != nil {
		panic(err)
	}
	return c
}

// sodaShared builds the same controller attached to the given fleet cache.
func sodaShared(cache *core.SolveCache) Factory {
	return func(ladder video.Ladder) abr.Controller {
		cfg := core.DefaultConfig()
		cfg.SharedCache = cache
		return core.New(cfg, ladder)
	}
}

// TestSodaSharedCacheBitIdentical is the shared-cache conformance contract:
// SODA with a fleet-wide solve cache must reproduce the cache-free decision
// sequences bit-for-bit on every registered ladder, concurrently and
// serially. One cache instance is shared across all ladders on purpose — the
// model fingerprint must keep their entries apart.
func TestSodaSharedCacheBitIdentical(t *testing.T) {
	cache := core.NewSolveCache(1 << 14)
	SharedStateConformance(t, "soda", sodaPlain, sodaShared(cache))
	if st := cache.Stats(); st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("contract exercised no cache traffic: %s", st.String())
	}
}

// TestSodaSharedCacheBitIdenticalUnderPressure repeats the contract with a
// deliberately undersized single-shard cache, so evictions and probe-window
// collisions happen constantly; decisions must be unaffected.
func TestSodaSharedCacheBitIdenticalUnderPressure(t *testing.T) {
	cache := core.NewSolveCacheSharded(32, 1)
	SharedStateConformance(t, "soda-tiny-cache", sodaPlain, sodaShared(cache))
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("undersized cache saw no evictions: %s", st.String())
	}
}

// TestSodaSharedCacheFullSuite runs the whole conformance suite on a
// shared-cache SODA: the cross-session cache must not break Reset semantics,
// determinism, or instance independence.
func TestSodaSharedCacheFullSuite(t *testing.T) {
	cache := core.NewSolveCache(1 << 14)
	Conformance(t, "soda-shared-cache", sodaShared(cache))
}

// sodaInPlace builds registry-default-configured SODA controllers, each
// Init-ed in place on the next element of one shared controller slice — the
// layout a fleet worker seats its sessions in. Concurrent callers claim
// neighbouring elements.
func sodaInPlace(slots []core.Controller, next *atomic.Int32) Factory {
	return func(ladder video.Ladder) abr.Controller {
		ctrl := &slots[next.Add(1)-1]
		ctrl.Init(core.DefaultConfig(), ladder)
		return ctrl
	}
}

// TestSodaArenaConformance is the in-place conformance contract: SODA
// controllers living side by side in one []core.Controller, as the fleet
// holds them, must decide bit-identically to heap-backed controllers. One
// slice serves every ladder, so controllers of different ladders are
// neighbours.
func TestSodaArenaConformance(t *testing.T) {
	// ArenaConformance builds 42 controllers per ladder.
	slots := make([]core.Controller, 42*len(video.NamedLadders()))
	var next atomic.Int32
	ArenaConformance(t, "soda", sodaPlain, sodaInPlace(slots, &next))
	if got := int(next.Load()); got != len(slots) {
		t.Fatalf("contract seated %d controllers, want %d", got, len(slots))
	}
}

// tableQuantum is the quantization step the table conformance contracts run
// at — the fleet quantum of the dataset benchmarks. Coarser than the default
// MemoQuantum on purpose: the contract is bit-identity at the table's
// quantum, so both factories must solve at the same step.
const tableQuantum = 0.5

// sodaAtQuantum builds a table-free SODA planning at the given quantum.
func sodaAtQuantum(quantum float64) Factory {
	return func(ladder video.Ladder) abr.Controller {
		cfg := core.DefaultConfig()
		cfg.MemoQuantum = quantum
		return core.New(cfg, ladder)
	}
}

// sodaTabled builds the same controller attached to the given compiled-table
// set at the same quantum.
func sodaTabled(tables *core.DecisionTables, quantum float64) Factory {
	return func(ladder video.Ladder) abr.Controller {
		cfg := core.DefaultConfig()
		cfg.DecisionTable = tables
		cfg.TableQuantum = quantum
		return core.New(cfg, ladder)
	}
}

// TestSodaDecisionTableBitIdentical is the decision-table conformance
// contract: SODA reading compiled decision tables must reproduce the
// table-free decision sequences bit-for-bit on every registered ladder,
// while the tables are cold (compiling under concurrent sessions) and warm,
// concurrently and serially. One table set is shared across all ladders on
// purpose — the table identity must keep them apart.
func TestSodaDecisionTableBitIdentical(t *testing.T) {
	tables := core.NewDecisionTables()
	TableConformance(t, "soda", sodaAtQuantum(tableQuantum), sodaTabled(tables, tableQuantum))
	st := tables.Stats()
	if want := len(video.NamedLadders()); st.Tables != want {
		t.Fatalf("table set compiled %d tables, want one per registered ladder (%d): %s", st.Tables, want, st)
	}
	if st.Stubs != 0 {
		t.Fatalf("registered-ladder tables must all be compilable, got stubs: %s", st)
	}
}

// TestSodaDecisionTableWithSharedCacheBitIdentical layers the fleet solve
// cache under the tables, so table fallbacks flow through the shared-cache
// path; the combination must still be bit-identical to the plain controller
// at the same quantum.
func TestSodaDecisionTableWithSharedCacheBitIdentical(t *testing.T) {
	tables := core.NewDecisionTables()
	cache := core.NewSolveCache(1 << 14)
	combined := func(ladder video.Ladder) abr.Controller {
		cfg := core.DefaultConfig()
		cfg.DecisionTable = tables
		cfg.TableQuantum = tableQuantum
		cfg.SharedCache = cache
		return core.New(cfg, ladder)
	}
	TableConformance(t, "soda-table-cache", sodaAtQuantum(tableQuantum), combined)
	if st := cache.Stats(); st.Lookups == 0 {
		t.Fatalf("fallbacks never consulted the shared cache: %s", st.String())
	}
}

// TestSodaDecisionTableFullSuite runs the whole conformance suite on a
// table-backed SODA: the cross-session compiled state must not break Reset
// semantics, determinism, instance independence, or hostile-trace survival.
func TestSodaDecisionTableFullSuite(t *testing.T) {
	tables := core.NewDecisionTables()
	Conformance(t, "soda-table", sodaTabled(tables, tableQuantum))
}

// TestSodaTelemetryBitIdentical is the telemetry purity contract for the
// registry-default SODA: a session with a live collector attached must be
// bit-identical to a bare one (telemetry is pull-based and outside the
// decision path), with the collector's totals matching the session result.
func TestSodaTelemetryBitIdentical(t *testing.T) {
	TelemetryConformance(t, "soda", sodaPlain)
}

// TestSodaTelemetryBitIdenticalWithSharedCache repeats the telemetry purity
// contract with the fleet cache attached, so the solver-stats snapshotting
// covers the shared-lookup counters too.
func TestSodaTelemetryBitIdenticalWithSharedCache(t *testing.T) {
	cache := core.NewSolveCache(1 << 14)
	TelemetryConformance(t, "soda-shared-cache", sodaShared(cache))
}

// TestSodaFlightRecBitIdentical is the flight-recorder purity contract for
// the registry-default SODA: a session observed by the QoE-consistency
// watchdog must be bit-identical to a bare one — the watchdog reads the
// decision stream and never feeds back — including when every registered
// ladder replays concurrently against one shared watchdog (run with -race).
func TestSodaFlightRecBitIdentical(t *testing.T) {
	FlightRecConformance(t, "soda", sodaPlain)
}

// TestSodaFlightRecBitIdenticalWithTables repeats the flight-recorder purity
// contract with compiled decision tables attached, so watchdog observation
// composes with the table fast path without perturbing it.
func TestSodaFlightRecBitIdenticalWithTables(t *testing.T) {
	tables := core.NewDecisionTables()
	FlightRecConformance(t, "soda-table", sodaTabled(tables, tableQuantum))
}
