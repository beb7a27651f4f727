package sim

import (
	"testing"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
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
	if rep.Arena.HighWater != 300 {
		t.Fatalf("arena high water = %d, want 300: %s", rep.Arena.HighWater, rep.Arena)
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

// TestFleetMatchesSingleSessionDecisions cross-checks the fleet player
// against a hand-rolled serial replay of the same model: one session, one
// trace, identical decision inputs step by step.
func TestFleetMatchesSingleSessionDecisions(t *testing.T) {
	ladder := video.Mobile()
	f, err := NewFleet(FleetConfig{
		Sessions: 1,
		Workers:  1,
		Ladder:   ladder,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Advance(units.Seconds(45))
	_, st, _ := f.Session(0)
	rep := f.Report()
	if rep.Decisions == 0 || st.Segment == 0 {
		t.Fatalf("no progress: %+v", rep)
	}

	// Serial replay with the same trace pool, controller config and player
	// arithmetic must land on the same (segment, prevRung, buffer) state.
	tr, err := tracegen.Puffer().Session(units.Seconds(120), 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := tr.Samples()
	cfg := fleetControllerConfig()
	ctrl := core.New(cfg, ladder)
	pred := &constPredictor{}
	var (
		buffer  units.Seconds
		prev    = int32(-1)
		segment int32
		cursor  int
	)
	segDur := ladder.SegmentSeconds
	actx := newFleetContext(ladder, units.Seconds(20), pred)
	for n := uint64(0); n < rep.Decisions; n++ {
		omega := samples[cursor%len(samples)].Mbps
		cursor++
		pred.omega = omega
		actx.Buffer = buffer
		actx.PrevRung = int(prev)
		actx.SegmentIndex = int(segment)
		actx.LastThroughput = omega
		d := ctrl.Decide(actx)
		if d.Rung < 0 {
			wait := d.WaitSeconds
			if wait <= 0 || wait > segDur {
				wait = segDur.Scale(0.5)
			}
			if wait > buffer {
				wait = buffer
			}
			buffer -= wait
			continue
		}
		rung := ladder.ClampIndex(d.Rung)
		thr := float64(omega)
		if thr < 0.1 {
			thr = 0.1
		}
		dl := units.Seconds(float64(ladder.Mbps(rung)) * float64(segDur) / thr)
		buffer += segDur - dl
		if buffer < 0 {
			buffer = 0
		}
		if buffer > 20 {
			buffer = 20
		}
		prev = int32(rung)
		segment++
	}
	if segment != st.Segment || prev != st.PrevRung {
		t.Fatalf("serial replay (segment=%d prev=%d) != fleet (segment=%d prev=%d)",
			segment, prev, st.Segment, st.PrevRung)
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
	// Advance after Close is a no-op, not a deadlock.
	f.Advance(units.Seconds(5))
}

// TestWheelLongHorizons drives the wheel directly: events beyond the inner
// span cascade from the outer wheel, and events beyond even the outer span
// lap it and still fire at their exact tick.
func TestWheelLongHorizons(t *testing.T) {
	a := arena.New(1, 0)
	const n = 5
	states := make([]*arena.State, n)
	for i := range states {
		_, states[i], _, _ = a.Alloc(0)
	}
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

// newFleetContext mirrors the worker's reusable context setup for the serial
// replay test.
func newFleetContext(ladder video.Ladder, bufferCap units.Seconds, pred *constPredictor) *abr.Context {
	return &abr.Context{
		BufferCap:     bufferCap,
		Ladder:        ladder,
		TotalSegments: 1 << 20,
		Predict:       pred.predict,
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

func TestStepPlayer(t *testing.T) {
	const segment, bufferCap = units.Seconds(2), units.Seconds(10)
	// Seconds and Mb/s as plain numbers: buffer, wait, dt, stall and the
	// buffer after in seconds, bitrate and omega in Mb/s.
	cases := []struct {
		name                            string
		buffer                          float64
		rung                            int
		bitrate, wait, omega            float64
		wantDT, wantStall, wantBufferAt float64
	}{
		{name: "wait drains", buffer: 5, rung: abr.NoRung, wait: 1.5, wantDT: 1.5, wantBufferAt: 3.5},
		{name: "wait capped at the buffer", buffer: 0.5, rung: abr.NoRung, wait: 1.5, wantDT: 0.5},
		{name: "non-positive wait is half a segment", buffer: 5, rung: abr.NoRung, wantDT: 1, wantBufferAt: 4},
		{name: "over-long wait is half a segment", buffer: 5, rung: abr.NoRung, wait: 3, wantDT: 1, wantBufferAt: 4},
		{name: "download deposits a segment", buffer: 4, rung: 1, bitrate: 2, omega: 4, wantDT: 1, wantBufferAt: 5},
		{name: "download capped", buffer: 9, rung: 1, bitrate: 2, omega: 4, wantDT: 1, wantBufferAt: 10},
		{name: "underflow charged as stall", buffer: 1, rung: 2, bitrate: 8, omega: 2, wantDT: 8, wantStall: 5},
		{name: "dead link floored", rung: 0, bitrate: 0.1, wantDT: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := arena.State{Buffer: units.Seconds(tc.buffer), Stall: units.Seconds(1), PrevRung: 7, Segment: 3}
			dt, stall := StepPlayer(&st, tc.rung, units.Mbps(tc.bitrate), units.Seconds(tc.wait),
				units.Mbps(tc.omega), segment, bufferCap)
			if float64(dt) != tc.wantDT || float64(stall) != tc.wantStall || float64(st.Buffer) != tc.wantBufferAt {
				t.Fatalf("dt, stall, buffer = %g, %g, %g; want %g, %g, %g",
					dt, stall, st.Buffer, tc.wantDT, tc.wantStall, tc.wantBufferAt)
			}
			if want := 1 + tc.wantStall; float64(st.Stall) != want {
				t.Fatalf("state stall = %g, want %g", st.Stall, want)
			}
			wantPrev, wantSeg := int32(7), int32(3)
			if tc.rung >= 0 {
				wantPrev, wantSeg = int32(tc.rung), 4
			}
			if st.PrevRung != wantPrev || st.Segment != wantSeg {
				t.Fatalf("prev rung, segment = %d, %d; want %d, %d", st.PrevRung, st.Segment, wantPrev, wantSeg)
			}
		})
	}
}
