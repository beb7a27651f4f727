// Package abrtest provides a reusable conformance suite for abr.Controller
// implementations: any controller registered in this repository (and any a
// downstream user writes) can be validated against the harness contracts —
// total decisions over the legal state space, clean Reset semantics,
// determinism of fresh instances, independence of concurrent instances
// (meaningful under -race), and survival of a full simulated session on
// hostile traces.
package abrtest

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// Factory builds a fresh controller bound to the given ladder.
type Factory func(ladder video.Ladder) abr.Controller

// Conformance runs the full contract suite against fresh controllers from
// the factory.
func Conformance(t *testing.T, name string, factory Factory) {
	t.Helper()
	t.Run(name+"/decisions-total", func(t *testing.T) { decisionsTotal(t, factory(video.YouTube4K())) })
	t.Run(name+"/reset-restores", func(t *testing.T) { resetRestores(t, factory) })
	t.Run(name+"/decide-deterministic", func(t *testing.T) { decideDeterministic(t, factory) })
	t.Run(name+"/concurrent-instances", func(t *testing.T) { concurrentInstances(t, factory) })
	t.Run(name+"/survives-hostile-traces", func(t *testing.T) { survivesHostile(t, factory) })
}

// SharedStateConformance checks a controller wired to cross-session shared
// state (e.g. a fleet-wide solve cache) against the bit-identity contract:
// for every registered ladder, instances built by `shared` must reproduce the
// decision sequences of instances built by `plain` exactly — while the shared
// state is cold and being filled by concurrent racing instances, again once
// it is warm, and serially. The concurrent passes repeat under several
// GOMAXPROCS settings; run the contract with -race to also prove the shared
// state is correctly synchronised.
func SharedStateConformance(t *testing.T, name string, plain, shared Factory) {
	t.Helper()
	twin{contract: "shared-bit-identical", seed: 1000, seedStep: 13, got: "shared", want: "plain"}.
		run(t, name, plain, shared)
}

// TableConformance checks a controller wired to fleet-wide compiled decision
// tables (core.DecisionTables) against the bit-identity contract: for every
// registered ladder, instances built by `tabled` must reproduce the decision
// sequences of instances built by `plain` exactly — while the table is cold
// and compiled under concurrent racing instances, again once it is warm, and
// serially. The factories must solve at the same quantum (the table's
// TableQuantum equal to the plain controller's MemoQuantum), because the
// contract is bit-identity at the table's quantum, not across quanta. The
// concurrent passes repeat under several GOMAXPROCS settings; run with -race
// to also prove table compilation and binding are correctly synchronised.
//
// The serial pass additionally audits the table traffic through SolveStats:
// lookups must equal hits plus fallbacks, and both hits and fallbacks must
// occur — the context streams cover in-domain states and (via throughputs
// beyond 2x the smaller ladders' top rung and session-tail horizons)
// out-of-domain states, so a table that never hits or a domain check that
// clamps instead of falling back both fail loudly.
func TableConformance(t *testing.T, name string, plain, tabled Factory) {
	t.Helper()
	twin{contract: "table-bit-identical", seed: 5000, seedStep: 19, got: "tabled", want: "plain", audit: auditTableTraffic}.
		run(t, name, plain, tabled)
}

// auditTableTraffic checks the serial pass's table books (TableConformance).
func auditTableTraffic(t *testing.T, serial []abr.Controller) {
	t.Helper()
	var traffic core.SolveStats
	for _, c := range serial {
		if sc, ok := c.(interface{ SolveStats() core.SolveStats }); ok {
			traffic.Add(sc.SolveStats())
		}
	}
	if err := tableTrafficError(traffic); err != nil {
		t.Fatal(err)
	}
}

// tableTrafficError reports what is wrong with a table-backed run's books:
// lookups must equal hits plus fallbacks, and both must occur.
func tableTrafficError(s core.SolveStats) error {
	switch {
	case s.TableLookups == 0:
		return errors.New("tabled controllers performed no table lookups; factory is not table-backed")
	case s.TableLookups != s.TableHits+s.TableFallbacks:
		return fmt.Errorf("table traffic books broken: %d lookups != %d hits + %d fallbacks",
			s.TableLookups, s.TableHits, s.TableFallbacks)
	case s.TableHits == 0:
		return errors.New("no table hits: the in-domain states never reached the table")
	case s.TableFallbacks == 0:
		return errors.New("no table fallbacks: the stream never left the domain, so the fallback path went unchecked")
	}
	return nil
}

// ArenaConformance is the in-place purity contract: controllers seated in
// place in flat controller slices, the fleet's per-worker layout
// (arenaBacked seats each one on a fresh element, and may seat all of a
// ladder's controllers on one shared policy, as the fleet does), must
// reproduce heap-backed decision sequences bit-for-bit on every registered
// ladder. The concurrent passes seat and drive neighbouring controllers from
// racing goroutines under several GOMAXPROCS settings (run with -race to
// also prove they share no mutable state); the serial pass seats them one
// stream at a time.
// Each ladder seats 42 controllers: six streams in each of six concurrent
// passes and in the serial pass.
func ArenaConformance(t *testing.T, name string, plain Factory, arenaBacked Factory) {
	t.Helper()
	twin{contract: "arena-bit-identical", seed: 9000, seedStep: 23, got: "arena", want: "heap"}.
		run(t, name, plain, arenaBacked)
}

// twin is one bit-identity contract between controllers from a reference
// factory and controllers from a factory wired to the state under test.
type twin struct {
	contract       string // subtest name between the caller's name and the ladder's
	seed, seedStep uint64 // stream i replays contextStream(seed + i*seedStep)
	got, want      string // the two sides' labels in a failure
	// audit, when set, checks the serial pass's controllers.
	audit func(t *testing.T, serial []abr.Controller)
}

// run checks, on every registered ladder, that six 80-step streams decide
// the same on both sides: twice concurrently at each of GOMAXPROCS 1, 2 and
// 4 (the first pass meets any shared state cold), then serially.
func (tw twin) run(t *testing.T, name string, plain, other Factory) {
	t.Helper()
	for _, nl := range video.NamedLadders() {
		nl := nl
		t.Run(name+"/"+tw.contract+"/"+nl.Name, func(t *testing.T) {
			const sessions, steps = 6, 80
			streams := make([][]*abr.Context, sessions)
			want := make([][]int, sessions)
			for i := range streams {
				streams[i] = contextStream(nl.Ladder, tw.seed+uint64(i)*tw.seedStep, steps)
				want[i] = replay(plain(nl.Ladder), streams[i])
			}
			check := func(pass string, got [][]int) {
				t.Helper()
				if i, j, differ := mismatch(want, got); differ {
					t.Fatalf("%s: stream %d decision %d: %s %d != %s %d",
						pass, i, j, tw.got, got[i][j], tw.want, want[i][j])
				}
			}
			concurrent := func() [][]int {
				got := make([][]int, sessions)
				var wg sync.WaitGroup
				for i := range streams {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got[i] = replay(other(nl.Ladder), streams[i])
					}(i)
				}
				wg.Wait()
				return got
			}
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				check(fmt.Sprintf("concurrent at GOMAXPROCS %d", procs), concurrent())
				check(fmt.Sprintf("concurrent again at GOMAXPROCS %d", procs), concurrent())
			}
			runtime.GOMAXPROCS(prev)
			serial := make([][]int, sessions)
			ctrls := make([]abr.Controller, sessions)
			for i := range streams {
				ctrls[i] = other(nl.Ladder)
				serial[i] = replay(ctrls[i], streams[i])
			}
			check("serial", serial)
			if tw.audit != nil {
				tw.audit(t, ctrls)
			}
		})
	}
}

// mismatch returns the first stream and decision at which got differs from
// want.
func mismatch(want, got [][]int) (stream, decision int, differ bool) {
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// decisionsTotal checks the controller returns an in-range rung or a
// positive wait for every legal context.
func decisionsTotal(t *testing.T, c abr.Controller) {
	t.Helper()
	ladder := video.YouTube4K()
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 500; i++ {
		omega := units.Mbps(0.2 + rng.Float64()*120)
		ctx := &abr.Context{
			Now:            units.Seconds(rng.Float64() * 600),
			Buffer:         units.Seconds(rng.Float64() * 20),
			BufferCap:      units.Seconds(20),
			PrevRung:       rng.IntN(ladder.Len()+1) - 1,
			Ladder:         ladder,
			SegmentIndex:   i,
			TotalSegments:  600,
			LastThroughput: omega.Scale(0.5 + rng.Float64()),
			Predict:        func(units.Seconds) units.Mbps { return omega },
		}
		d := c.Decide(ctx)
		if d.Rung == abr.NoRung {
			if d.WaitSeconds <= 0 {
				t.Fatalf("case %d: wait with non-positive duration %v", i, d.WaitSeconds)
			}
			continue
		}
		if d.Rung < 0 || d.Rung >= ladder.Len() {
			t.Fatalf("case %d: rung %d out of range", i, d.Rung)
		}
	}
}

// resetRestores checks that Reset returns the controller to its initial
// behaviour: the decision sequence over a fixed context stream matches a
// fresh instance's.
func resetRestores(t *testing.T, factory Factory) {
	t.Helper()
	ladder := video.Mobile()
	stream := func() []*abr.Context {
		rng := rand.New(rand.NewPCG(3, 9))
		out := make([]*abr.Context, 40)
		prev := abr.NoRung
		for i := range out {
			omega := units.Mbps(1 + rng.Float64()*14)
			out[i] = &abr.Context{
				Buffer:        units.Seconds(rng.Float64() * 20),
				BufferCap:     units.Seconds(20),
				PrevRung:      prev,
				Ladder:        ladder,
				SegmentIndex:  i,
				TotalSegments: 40,
				Predict:       func(units.Seconds) units.Mbps { return omega },
			}
			prev = rng.IntN(ladder.Len())
		}
		return out
	}
	run := func(c abr.Controller) []int {
		out := make([]int, 0, 40)
		for _, ctx := range stream() {
			out = append(out, c.Decide(ctx).Rung)
		}
		return out
	}

	fresh := factory(ladder)
	want := run(fresh)

	dirty := factory(ladder)
	run(dirty) // accumulate state
	dirty.Reset()
	got := run(dirty)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d after Reset = %d, fresh = %d", i, got[i], want[i])
		}
	}
}

// contextStream builds a deterministic stream of legal contexts from a seed.
func contextStream(ladder video.Ladder, seed uint64, n int) []*abr.Context {
	rng := rand.New(rand.NewPCG(seed, 17))
	out := make([]*abr.Context, n)
	prev := abr.NoRung
	for i := range out {
		omega := units.Mbps(0.5 + rng.Float64()*40)
		out[i] = &abr.Context{
			Now:            units.Seconds(float64(i) * 4),
			Buffer:         units.Seconds(rng.Float64() * 20),
			BufferCap:      units.Seconds(20),
			PrevRung:       prev,
			Ladder:         ladder,
			SegmentIndex:   i,
			TotalSegments:  n,
			LastThroughput: omega.Scale(0.6 + rng.Float64()*0.8),
			Predict:        func(units.Seconds) units.Mbps { return omega },
		}
		prev = rng.IntN(ladder.Len())
	}
	return out
}

func replay(c abr.Controller, stream []*abr.Context) []int {
	out := make([]int, 0, len(stream))
	for _, ctx := range stream {
		out = append(out, c.Decide(ctx).Rung)
	}
	return out
}

// decideDeterministic checks that decisions are a pure function of the
// controller's observed history: a fresh instance replaying stream S must
// match a second fresh instance that first saw an unrelated warmup stream,
// was Reset, and then replayed S. This catches unseeded randomness and any
// internal cache or memo that leaks state across Reset.
func decideDeterministic(t *testing.T, factory Factory) {
	t.Helper()
	ladder := video.YouTube4K()
	stream := contextStream(ladder, 101, 60)
	warmup := contextStream(ladder, 202, 60)

	want := replay(factory(ladder), stream)

	dirty := factory(ladder)
	replay(dirty, warmup)
	dirty.Reset()
	got := replay(dirty, stream)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d = %d after warmup+Reset, fresh = %d", i, got[i], want[i])
		}
	}

	// And a plain double-check: two fresh instances agree outright.
	again := replay(factory(ladder), stream)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("decision %d differs across fresh instances: %d vs %d", i, again[i], want[i])
		}
	}
}

// concurrentInstances drives two independent instances on separate
// goroutines with distinct context streams and checks each matches its own
// serial replay. Run under -race this proves instances share no mutable
// state (a shared unsynchronised cache or scratch buffer would both race and
// cross-contaminate decisions).
func concurrentInstances(t *testing.T, factory Factory) {
	t.Helper()
	ladder := video.Mobile()
	streams := [][]*abr.Context{
		contextStream(ladder, 31, 80),
		contextStream(ladder, 47, 80),
	}
	want := make([][]int, len(streams))
	for i, s := range streams {
		want[i] = replay(factory(ladder), s)
	}

	got := make([][]int, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s []*abr.Context) {
			defer wg.Done()
			got[i] = replay(factory(ladder), s)
		}(i, s)
	}
	wg.Wait()

	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("stream %d decision %d: concurrent %d != serial %d",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// hostileTraces are the adversarial sessions the harness contracts replay: a
// collapse to near-zero, a sawtooth, and a spike train.
func hostileTraces() map[string]*trace.Trace {
	return map[string]*trace.Trace{
		"collapse": trace.New([]trace.Sample{{Duration: units.Seconds(30), Mbps: units.Mbps(40)}, {Duration: units.Seconds(90), Mbps: units.Mbps(0.3)}}),
		"sawtooth": trace.New([]trace.Sample{
			{Duration: units.Seconds(10), Mbps: units.Mbps(30)}, {Duration: units.Seconds(10), Mbps: units.Mbps(2)},
			{Duration: units.Seconds(10), Mbps: units.Mbps(30)}, {Duration: units.Seconds(10), Mbps: units.Mbps(2)},
			{Duration: units.Seconds(10), Mbps: units.Mbps(30)}, {Duration: units.Seconds(10), Mbps: units.Mbps(2)},
		}),
		"spikes": trace.New([]trace.Sample{
			{Duration: units.Seconds(25), Mbps: units.Mbps(3)}, {Duration: units.Seconds(2), Mbps: units.Mbps(200)},
			{Duration: units.Seconds(25), Mbps: units.Mbps(3)}, {Duration: units.Seconds(2), Mbps: units.Mbps(200)},
			{Duration: units.Seconds(26), Mbps: units.Mbps(3)},
		}),
	}
}

// survivesHostile runs full sessions over the hostile traces. The session
// must complete without error.
func survivesHostile(t *testing.T, factory Factory) {
	t.Helper()
	for tname, tr := range hostileTraces() {
		res, err := sim.Run(tr, sim.Config{
			Ladder:         video.Mobile(),
			BufferCap:      units.Seconds(20),
			SessionSeconds: tr.Duration(),
			Controller:     factory(video.Mobile()),
			Predictor:      predictor.NewEMA(units.Seconds(4)),
		})
		if err != nil {
			t.Fatalf("%s: %v", tname, err)
		}
		if res.Metrics.Segments == 0 {
			t.Fatalf("%s: no segments played", tname)
		}
	}
}

// TelemetryConformance is the telemetry purity contract: attaching a live
// collector to a simulated session must leave the session bit-identical to
// running bare — same decision sequence, waits, abandons and QoE metrics —
// because recording is pull-based and never feeds back into the controller.
// It also cross-checks the collector's books against the session result
// (one event per Decide, one session, segment and stall totals matching).
func TelemetryConformance(t *testing.T, name string, factory Factory) {
	t.Helper()
	for tname, tr := range hostileTraces() {
		tname, tr := tname, tr
		t.Run(name+"/telemetry-bit-identical/"+tname, func(t *testing.T) {
			cfg := sim.Config{
				Ladder:         video.Mobile(),
				BufferCap:      units.Seconds(20),
				SessionSeconds: tr.Duration(),
				Abandonment:    true,
			}

			bareCfg := cfg
			bareCfg.Controller = factory(video.Mobile())
			bareCfg.Predictor = predictor.NewEMA(units.Seconds(4))
			bare, err := sim.Run(tr, bareCfg)
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}

			col := telemetry.NewCollector(nil, 1<<12)
			telCfg := cfg
			telCfg.Controller = factory(video.Mobile())
			telCfg.Predictor = predictor.NewEMA(units.Seconds(4))
			telCfg.Telemetry = col
			instrumented, err := sim.Run(tr, telCfg)
			if err != nil {
				t.Fatalf("instrumented run: %v", err)
			}

			if len(bare.Rungs) != len(instrumented.Rungs) {
				t.Fatalf("rung counts differ: bare %d, instrumented %d", len(bare.Rungs), len(instrumented.Rungs))
			}
			for i := range bare.Rungs {
				if bare.Rungs[i] != instrumented.Rungs[i] {
					t.Fatalf("decision %d: bare %d, instrumented %d", i, bare.Rungs[i], instrumented.Rungs[i])
				}
			}
			if bare.Waits != instrumented.Waits || bare.Abandons != instrumented.Abandons {
				t.Fatalf("waits/abandons differ: bare %d/%d, instrumented %d/%d",
					bare.Waits, bare.Abandons, instrumented.Waits, instrumented.Abandons)
			}
			if bare.Metrics != instrumented.Metrics {
				t.Fatalf("metrics differ:\nbare:         %+v\ninstrumented: %+v", bare.Metrics, instrumented.Metrics)
			}

			wantDecisions := len(instrumented.Rungs) + instrumented.Waits
			if got := col.Decisions.Value(); got != float64(wantDecisions) {
				t.Errorf("collector decisions = %g, want %d (rungs+waits)", got, wantDecisions)
			}
			if got := col.Waits.Value(); got != float64(instrumented.Waits) {
				t.Errorf("collector waits = %g, want %d", got, instrumented.Waits)
			}
			if got := col.Ring.Total(); got != uint64(wantDecisions) {
				t.Errorf("ring total = %d, want %d", got, wantDecisions)
			}
			if got := col.Sessions.Value(); got != 1 {
				t.Errorf("collector sessions = %g, want 1", got)
			}
			if got := col.Segments.Value(); got != float64(instrumented.Metrics.Segments) {
				t.Errorf("collector segments = %g, want %d", got, instrumented.Metrics.Segments)
			}
			if got := col.RebufferSeconds.Value(); got != float64(instrumented.Metrics.RebufferSec) {
				t.Errorf("collector rebuffer seconds = %g, want %g",
					got, float64(instrumented.Metrics.RebufferSec))
			}
		})
	}
}

// FlightRecConformance is the flight-recorder purity contract: attaching the
// QoE-consistency watchdog (alongside a live collector) to a session must
// leave it bit-identical to running bare — same decision sequence, waits,
// abandons and QoE metrics — because the watchdog observes the decision
// stream from outside the controller and never feeds back into it.
//
// Two passes:
//
//   - Serial, per hostile trace: bare vs watchdog+collector runs compared
//     decision for decision, and the watchdog's books are sanity-checked
//     (incident log total matches the per-kind counters; every logged
//     incident belongs to the session and carries a valid kind).
//   - Concurrent, per registered ladder: every ladder replays the hostile
//     traces simultaneously against ONE shared Watchdog, and each must stay
//     bit-identical to its own serial bare run. Run with -race to also prove
//     the shared incident counters and bounded log are data-race-free.
func FlightRecConformance(t *testing.T, name string, factory Factory) {
	t.Helper()
	// A deliberately twitchy configuration so the hostile traces actually
	// fire every detector: a short window, few switches, a high horizon.
	twitchy := WatchdogTestConfig()

	for tname, tr := range hostileTraces() {
		tname, tr := tname, tr
		t.Run(name+"/flightrec-bit-identical/"+tname, func(t *testing.T) {
			cfg := sim.Config{
				Ladder:         video.Mobile(),
				BufferCap:      units.Seconds(20),
				SessionSeconds: tr.Duration(),
				Abandonment:    true,
			}

			bareCfg := cfg
			bareCfg.Controller = factory(video.Mobile())
			bareCfg.Predictor = predictor.NewEMA(units.Seconds(4))
			bare, err := sim.Run(tr, bareCfg)
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}

			watchdog := flightrec.NewWatchdog(nil, twitchy)
			watchedCfg := cfg
			watchedCfg.Controller = factory(video.Mobile())
			watchedCfg.Predictor = predictor.NewEMA(units.Seconds(4))
			watchedCfg.Telemetry = telemetry.NewCollector(nil, 1<<10)
			watchedCfg.Watchdog = watchdog
			watchedCfg.TelemetrySession = 7
			watched, err := sim.Run(tr, watchedCfg)
			if err != nil {
				t.Fatalf("watched run: %v", err)
			}

			requireIdenticalRuns(t, bare, watched, "watched")

			if total, logged := watchdog.Total(), watchdog.Log().Total(); total != logged {
				t.Errorf("incident counters total %d but log recorded %d", total, logged)
			}
			var perKind uint64
			for k := 0; k < flightrec.NumIncidentKinds; k++ {
				perKind += watchdog.Count(flightrec.IncidentKind(k))
			}
			if perKind != watchdog.Total() {
				t.Errorf("per-kind counts sum to %d, total says %d", perKind, watchdog.Total())
			}
			for _, in := range watchdog.Log().Snapshot() {
				if in.Session != 7 {
					t.Errorf("incident attributed to session %d, want 7", in.Session)
				}
				if int(in.Kind) >= flightrec.NumIncidentKinds {
					t.Errorf("incident has invalid kind %d", in.Kind)
				}
			}
		})
	}

	t.Run(name+"/flightrec-concurrent-shared-watchdog", func(t *testing.T) {
		shared := flightrec.NewWatchdog(nil, twitchy)
		var wg sync.WaitGroup
		for li, nl := range video.NamedLadders() {
			for tname, tr := range hostileTraces() {
				li, nl, tr := li, nl, tr
				cfg := sim.Config{
					Ladder:         nl.Ladder,
					BufferCap:      units.Seconds(20),
					SessionSeconds: tr.Duration(),
					Abandonment:    true,
				}
				bareCfg := cfg
				bareCfg.Controller = factory(nl.Ladder)
				bareCfg.Predictor = predictor.NewEMA(units.Seconds(4))
				bare, err := sim.Run(tr, bareCfg)
				if err != nil {
					t.Fatalf("%s/%s bare: %v", nl.Name, tname, err)
				}
				wg.Add(1)
				go func(label string) {
					defer wg.Done()
					wCfg := cfg
					wCfg.Controller = factory(nl.Ladder)
					wCfg.Predictor = predictor.NewEMA(units.Seconds(4))
					wCfg.Watchdog = shared
					wCfg.TelemetrySession = li
					watched, err := sim.Run(tr, wCfg)
					if err != nil {
						t.Errorf("%s watched: %v", label, err)
						return
					}
					compareRuns(t, label, bare, watched)
				}(nl.Name + "/" + tname)
			}
		}
		wg.Wait()
		if shared.Total() == 0 {
			t.Error("hostile traces fired no incidents; the contract exercised nothing")
		}
		if total, logged := shared.Total(), shared.Log().Total(); total != logged {
			t.Errorf("shared counters total %d but log recorded %d", total, logged)
		}
	})
}

// WatchdogTestConfig is the deliberately twitchy detector tuning the
// conformance contracts run with, exported so CLI tests can reuse it.
func WatchdogTestConfig() flightrec.WatchdogConfig {
	return flightrec.WatchdogConfig{
		OscillationWindow:   8,
		OscillationSwitches: 2,
		UnderrunHorizon:     units.Seconds(8),
	}
}

// diffRuns describes the first divergence between two session results —
// decision sequence, waits, abandons, QoE metrics — or returns "" when they
// are bit-identical. Factored out of the test helpers so the mismatch
// branches themselves are unit-testable.
func diffRuns(bare, other sim.Result) string {
	if len(bare.Rungs) != len(other.Rungs) {
		return fmt.Sprintf("rung counts differ: bare %d, other %d", len(bare.Rungs), len(other.Rungs))
	}
	for i := range bare.Rungs {
		if bare.Rungs[i] != other.Rungs[i] {
			return fmt.Sprintf("decision %d: bare %d, other %d", i, bare.Rungs[i], other.Rungs[i])
		}
	}
	if bare.Waits != other.Waits || bare.Abandons != other.Abandons {
		return fmt.Sprintf("waits/abandons differ: bare %d/%d, other %d/%d",
			bare.Waits, bare.Abandons, other.Waits, other.Abandons)
	}
	if bare.Metrics != other.Metrics {
		return fmt.Sprintf("metrics differ:\nbare:  %+v\nother: %+v", bare.Metrics, other.Metrics)
	}
	return ""
}

// requireIdenticalRuns fails fatally unless the two session results are
// bit-identical.
func requireIdenticalRuns(t *testing.T, bare, other sim.Result, label string) {
	t.Helper()
	if d := diffRuns(bare, other); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// compareRuns is requireIdenticalRuns for goroutines: Errorf, never Fatalf.
func compareRuns(t *testing.T, label string, bare, other sim.Result) {
	if d := diffRuns(bare, other); d != "" {
		t.Errorf("%s: %s", label, d)
	}
}
