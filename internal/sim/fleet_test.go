package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

func TestFleetValidation(t *testing.T) {
	if _, err := NewFleet(FleetConfig{Ladder: video.Mobile()}); err == nil {
		t.Fatal("NewFleet accepted zero sessions")
	}
	if _, err := NewFleet(FleetConfig{Sessions: 1}); err == nil {
		t.Fatal("NewFleet accepted an empty ladder")
	}
	if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(),
		BufferCap: units.Seconds(0.5)}); err == nil {
		t.Fatal("NewFleet accepted a sub-segment buffer cap")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(), BufferCap: units.Seconds(x)}); err == nil {
			t.Errorf("NewFleet accepted buffer cap %v", x)
		}
		if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(), TickSeconds: units.Seconds(x)}); err == nil {
			t.Errorf("NewFleet accepted tick %v s", x)
		}
	}
	bad := core.DefaultConfig()
	bad.Horizon = -3
	if _, err := NewFleet(FleetConfig{Sessions: 1, Ladder: video.Mobile(),
		Controller: &bad}); err == nil {
		t.Fatal("NewFleet accepted an invalid controller config")
	}
}

func TestFleetAdvancesEverySession(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Sessions: 300,
		Workers:  3,
		Ladder:   video.Mobile(),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Advance(units.Seconds(60))
	rep := f.Report()
	if rep.Sessions != 300 || rep.Workers != 3 {
		t.Fatalf("report sessions/workers = %d/%d, want 300/3", rep.Sessions, rep.Workers)
	}
	if rep.SimSeconds != units.Seconds(60) {
		t.Fatalf("sim clock = %v, want 60 s", rep.SimSeconds)
	}
	if want := (arena.Stats{Shards: 3, Slabs: 3, HighWater: 300}); rep.Arena != want {
		t.Fatalf("session layout = %s, want %s", rep.Arena, want)
	}
	// Over a minute of simulated time every session must have downloaded
	// many segments (steady cadence is roughly one per segment duration).
	for i := 0; i < rep.Sessions; i++ {
		_, st, ok := f.Session(i)
		if !ok {
			t.Fatalf("Session(%d) failed", i)
		}
		if st.Segment < 5 {
			t.Fatalf("session %d downloaded only %d segments in 60 s", i, st.Segment)
		}
		if st.Buffer < 0 || st.Buffer > units.Seconds(20) {
			t.Fatalf("session %d buffer %v outside [0, cap]", i, st.Buffer)
		}
	}
	if rep.Decisions < uint64(rep.Sessions)*5 {
		t.Fatalf("only %d decisions across the cohort", rep.Decisions)
	}
	if rep.Segments == 0 {
		t.Fatal("no segments downloaded")
	}
	// A window that is not positive and finite moves nothing.
	for _, window := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Advance(units.Seconds(window))
	}
	if got := f.Report(); got.SimSeconds != units.Seconds(60) || got.Decisions != rep.Decisions {
		t.Fatalf("non-finite windows moved the cohort to %v s and %d decisions", got.SimSeconds, got.Decisions)
	}
	if _, _, ok := f.Session(-1); ok {
		t.Fatal("Session(-1) succeeded")
	}
	if _, _, ok := f.Session(300); ok {
		t.Fatal("Session(300) succeeded")
	}
}

// TestFleetDeterministic pins that two cohorts with the same seed advance
// through identical decision histories — the property that makes fleet
// experiments reproducible and the benchmark's ratio gate stable.
func TestFleetDeterministic(t *testing.T) {
	build := func() *Fleet {
		f, err := NewFleet(FleetConfig{
			Sessions: 200,
			Workers:  2,
			Ladder:   video.Mobile(),
			Profile:  tracegen.FourG(),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	// Advance in different window patterns: the wheel must make window
	// boundaries invisible.
	a.Advance(units.Seconds(30))
	for i := 0; i < 6; i++ {
		b.Advance(units.Seconds(5))
	}
	ra, rb := a.Report(), b.Report()
	if ra.Decisions != rb.Decisions || ra.Waits != rb.Waits ||
		ra.Segments != rb.Segments || ra.StallSeconds != rb.StallSeconds {
		t.Fatalf("cohorts diverged:\n30x1: %+v\n5x6:  %+v", ra, rb)
	}
	for i := 0; i < ra.Sessions; i++ {
		_, sa, _ := a.Session(i)
		_, sb, _ := b.Session(i)
		if sa.Segment != sb.Segment || sa.PrevRung != sb.PrevRung || sa.Buffer != sb.Buffer {
			t.Fatalf("session %d diverged: %+v vs %+v", i, *sa, *sb)
		}
	}
}

// traceBandwidth predicts the trace's bandwidth at the decision time: the
// single-session stand-in for the fleet's throughput estimate.
type traceBandwidth struct{ tr *trace.Trace }

func (p traceBandwidth) Observe(predictor.Sample)                {}
func (p traceBandwidth) Predict(now, _ units.Seconds) units.Mbps { return p.tr.BandwidthAt(now) }
func (p traceBandwidth) Reset()                                  {}

// TestFleetMatchesSingleSessionDecisions is the one-player contract: a
// one-session Fleet and Run on the same Puffer trace, with the same ladder,
// cap (6 s, so the session stalls) and controller config, start-up 1 and a
// predictor returning the trace's bandwidth at the decision time, take the
// same decisions and reach a bit-identical clock, buffer, stall, segment and
// previous rung after each of the first 240 of Run's 300 segments (the last
// ones plan over a shorter remaining session than the fleet's endless one).
func TestFleetMatchesSingleSessionDecisions(t *testing.T) {
	const compared = 240
	ladder := video.YouTube4K()
	f, err := NewFleet(FleetConfig{Sessions: 1, Workers: 1, Ladder: ladder, Seed: 11,
		SessionLength: units.Seconds(600), BufferCap: units.Seconds(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool, err := TracePool(tracegen.Profile{}, 1, units.Seconds(600), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pool[0], Config{
		Ladder:           ladder,
		BufferCap:        units.Seconds(6),
		StartupSegments:  1,
		Controller:       core.New(fleetControllerConfig(), ladder),
		Predictor:        traceBandwidth{pool[0]},
		RecordTrajectory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := func(s units.Seconds) uint64 { return math.Float64bits(float64(s)) }
	_, st, _ := f.Session(0)
	var stall units.Seconds
	for i, pt := range res.Trajectory[:compared] {
		for ticks := 0; int(st.Segment) <= i; ticks++ {
			if ticks > 1e5 {
				t.Fatalf("fleet session stuck before segment %d: %+v", i, *st)
			}
			f.Advance(f.cfg.TickSeconds)
		}
		stall += pt.RebufferSec
		if int(st.Segment) != i+1 || int(st.PrevRung) != pt.Rung || bits(st.Clock) != bits(pt.Time) ||
			bits(st.Buffer) != bits(pt.Buffer) || bits(st.Stall) != bits(stall) {
			t.Fatalf("after segment %d: fleet (segment %d, rung %d, clock %v, buffer %v, stall %v) != "+
				"Run (segment %d, rung %d, clock %v, buffer %v, stall %v)", i, st.Segment, st.PrevRung, st.Clock,
				st.Buffer, st.Stall, i+1, pt.Rung, pt.Time, pt.Buffer, stall)
		}
	}
	if stall == 0 {
		t.Fatal("the compared segments charged no stall: the contract does not cover stall accounting")
	}
}

func TestFleetTelemetry(t *testing.T) {
	col := telemetry.NewCollector(nil, 1<<10)
	f, err := NewFleet(FleetConfig{
		Sessions:  50,
		Workers:   2,
		Ladder:    video.Mobile(),
		Seed:      3,
		Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(units.Seconds(20))
	rep := f.Report()
	f.Close()
	f.Close() // idempotent
	if got := col.Decisions.Value(); got != float64(rep.Decisions) {
		t.Fatalf("collector decisions = %g, fleet counted %d", got, rep.Decisions)
	}
	if got := col.Sessions.Value(); got != 50 {
		t.Fatalf("collector sessions = %g, want 50", got)
	}
	if got := col.Segments.Value(); got != float64(rep.Segments) {
		t.Fatalf("collector segments = %g, fleet counted %d", got, rep.Segments)
	}
	var stall units.Seconds
	for i := 0; i < rep.Sessions; i++ {
		_, st, _ := f.Session(i)
		stall += st.Stall
	}
	if got := col.RebufferSeconds.Value(); got != float64(stall) {
		t.Fatalf("collector rebuffer = %g s, sessions stalled %g s", got, stall)
	}
	// Advance after Close is a no-op, not a deadlock.
	f.Advance(units.Seconds(5))
}

// TestFleetTelemetryRingHoldsNewest pins what the decision ring holds after
// Close: the cohort's newest decisions, with every session labelled. Each
// worker batches its events in one recorder, so the ring's oldest event is
// at most one batch behind the cohort clock, not a session's stale tail.
func TestFleetTelemetryRingHoldsNewest(t *testing.T) {
	col := telemetry.NewCollector(nil, 1<<10)
	f, err := NewFleet(FleetConfig{Sessions: 400, Workers: 2, Ladder: video.Mobile(), Seed: 3, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(units.Seconds(60))
	f.Close()
	evs := col.Ring.Snapshot()
	if len(evs) != 1<<10 {
		t.Fatalf("ring holds %d events, want a full ring of %d", len(evs), 1<<10)
	}
	seen := map[int32]bool{}
	for _, ev := range evs {
		if ev.Session < 0 || ev.Session >= 400 {
			t.Fatalf("event labelled with session %d, outside the cohort", ev.Session)
		}
		seen[ev.Session] = true
		// 400 sessions decide about once per 2 s segment, so 1024 events
		// span a few seconds; a recorder batch of 256 adds about one more.
		if ev.AtSeconds < units.Seconds(50) {
			t.Fatalf("ring holds an event from %v, over 10 s before the cohort clock", ev.AtSeconds)
		}
	}
	if len(seen) < 200 {
		t.Fatalf("ring covers %d sessions, want most of the cohort's 400", len(seen))
	}
}

// TestFleetTelemetrySetupIsFlat pins the cost of attaching a collector: one
// recorder per worker, so NewFleet's extra allocation does not grow with the
// session count. A recorder per session cost about 20 KB each.
func TestFleetTelemetrySetupIsFlat(t *testing.T) {
	col := telemetry.NewCollector(nil, 0)
	setupBytes := func(sessions int, col *telemetry.Collector) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := NewFleet(FleetConfig{Sessions: sessions, Workers: 2, Ladder: video.Mobile(), Seed: 3, Telemetry: col})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, sessions := range []int{1000, 4000} {
		bare := setupBytes(sessions, nil)
		with := setupBytes(sessions, col)
		if extra := int64(with) - int64(bare); extra > 256<<10 {
			t.Errorf("%d sessions: a collector adds %d KB to NewFleet (%d B per session), want under 256 KB",
				sessions, extra>>10, extra/int64(sessions))
		}
	}
}

// TestFleetSessionSetupCeiling pins what seating one more session costs:
// its controller, player state and watchdog state in the worker's slices,
// and nothing on the heap besides. Table-backed controllers bind the
// compiled table's cost parameters and the solver keeps its search state on
// the stack, so a session allocates about 350 B at setup. The 512 B ceiling
// fails a controller that builds its own cost model and solver scratch,
// which costs about 1.2 KB a session.
func TestFleetSessionSetupCeiling(t *testing.T) {
	wd := flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	setupBytes := func(sessions int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := NewFleet(FleetConfig{Sessions: sessions, Workers: 1, Ladder: video.YouTube4K(), Seed: 3, Watchdog: wd})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := setupBytes(1000), setupBytes(4000)
	perSession := (int64(large) - int64(small)) / 3000
	if perSession > 512 {
		t.Errorf("each session past 1000 allocates %d B at setup, want at most 512", perSession)
	}
	t.Logf("%d B per session", perSession)
}

// TestFleetWatchLifecycle pins the per-session watchdog state: every
// session starts with a zeroed watch of its own, so one session's detector
// latches never leak into another's.
func TestFleetWatchLifecycle(t *testing.T) {
	wd := flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	f, err := NewFleet(FleetConfig{Sessions: 10, Workers: 2, Ladder: video.Mobile(), Seed: 3, Watchdog: wd})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var watches []*flightrec.SessionWatch
	for _, w := range f.workers {
		for local := range w.watches {
			watch := &w.watches[local]
			if *watch != (flightrec.SessionWatch{}) {
				t.Fatalf("session %d starts with watch state %+v, want zero", w.base+local, *watch)
			}
			watches = append(watches, watch)
		}
	}
	if len(watches) != 10 {
		t.Fatalf("%d watches for 10 sessions", len(watches))
	}
	// Latch playback start (buffer > 0), then stall: exactly one incident.
	wd.Observe(watches[0], 0, units.Seconds(1), units.Seconds(10), 0, 0)
	wd.Observe(watches[0], 0, units.Seconds(2), units.Seconds(0), 0, 0)
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("stall incidents after started+empty = %d, want 1", got)
	}
	// Every other session's started-latch is still clear: an empty buffer
	// on its first observation is the fill phase, not a stall.
	for i, watch := range watches[1:] {
		wd.Observe(watch, int32(i+1), units.Seconds(1), units.Seconds(0), 0, 0)
	}
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("another session inherited the started-latch: stall incidents = %d, want still 1", got)
	}
}

// TestWheelLongHorizons drives the wheel directly: events due beyond the
// wheel's span, one lap or a thousand, park in their slot, are re-parked on
// every visit before they are due, and fire exactly once, at their exact
// tick.
func TestWheelLongHorizons(t *testing.T) {
	states := make([]arena.State, 5)
	var w wheel
	w.init()
	due := []uint32{3, wheelSlots + 7, 3 * wheelSlots, wheelSlots*wheelSlots + 13, 2*wheelSlots*wheelSlots + 1}
	for i, d := range due {
		w.schedule(states, uint32(i), d)
	}
	fired := map[uint32]uint32{}
	w.advance(states, 2*wheelSlots*wheelSlots+wheelSlots, func(local, tick uint32) {
		if _, dup := fired[local]; dup {
			t.Fatalf("session %d fired twice", local)
		}
		fired[local] = tick
	})
	for i, d := range due {
		if got := fired[uint32(i)]; got != d {
			t.Fatalf("session %d fired at tick %d, want %d", i, got, d)
		}
	}
	// Past-due scheduling clamps to the next tick instead of never firing.
	w.schedule(states, 0, 1)
	var clamped uint32
	w.advance(states, w.now+2, func(local, tick uint32) { clamped = tick })
	if clamped == 0 {
		t.Fatal("past-due event never fired")
	}
}

// synthTraces builds n deterministic traces from a tracegen profile.
func synthTraces(t *testing.T, profile tracegen.Profile, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, n)
	for i := range out {
		tr, err := profile.Session(units.Seconds(90), 99, i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// RunMany satellite: deterministic indexed results on a bounded pool.
func TestRunManyDeterministicAcrossRepeats(t *testing.T) {
	profile := tracegen.FiveG()
	runOnce := func() []Result {
		ts := synthTraces(t, profile, 24)
		factory := func() (abr.Controller, predictor.Predictor) {
			return core.New(core.DefaultConfig(), video.Mobile()), predictor.NewEMA(units.Seconds(4))
		}
		out, err := RunMany(ts, factory, Config{
			Ladder:         video.Mobile(),
			BufferCap:      units.Seconds(20),
			SessionSeconds: units.Seconds(60),
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce()
	second := runOnce()
	if len(first) != 24 || len(second) != 24 {
		t.Fatalf("result counts %d/%d, want 24", len(first), len(second))
	}
	for i := range first {
		if first[i].Metrics != second[i].Metrics || first[i].Waits != second[i].Waits ||
			first[i].Duration != second[i].Duration {
			t.Fatalf("session %d differs across repeat runs:\n1st: %+v\n2nd: %+v",
				i, first[i].Metrics, second[i].Metrics)
		}
		if len(first[i].Rungs) == 0 {
			t.Fatalf("session %d recorded no rungs", i)
		}
	}
}
