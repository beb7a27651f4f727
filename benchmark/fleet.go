package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// fleetTableQuantum is the fleet's default table quantum; the tables-off
// twin quantizes its solver inputs at the same step.
const fleetTableQuantum = 0.5

// fleetSizes sizes the fleet workload. The timed phase is 250 short windows
// (2-3 ms of wall time each) per measured second. A window is 10 wheel
// ticks, so the second wheel level's cascade, every 256 ticks, lands in
// about one window in 26: the 99th percentile sits among the cascade
// windows, not on the edge between them and the rest, where it would jump
// between the two from run to run (it did with 4-tick windows).
type fleetSizes struct {
	sessions, twin, windows, sampleEvery int
	warmup, window, traceSeconds         units.Seconds
}

func fleetSizesFor(c runConfig) fleetSizes {
	if c.small {
		return fleetSizes{sessions: 2000, twin: 256, windows: 100, sampleEvery: 16,
			warmup: units.Seconds(10), window: units.Seconds(0.1), traceSeconds: units.Seconds(120)}
	}
	return fleetSizes{sessions: 100000, twin: 1024, windows: max(1, int(math.Round(250*c.seconds))),
		sampleEvery: 16, warmup: units.Seconds(10), window: units.Seconds(0.1), traceSeconds: units.Seconds(600)}
}

// fleetLadder is the ladder soda-sim pairs with the fleet's default Puffer
// profile.
var fleetLadder = video.YouTube4K()

// fleetConfig is the cohort of soda-sim -fleet -dataset puffer: the fleet's
// default Puffer profile and default controller (unless ctrl overrides it).
// The fleet shares one pool of at most 256 traces across its sessions, so
// the pool's make-up sets the cohort's QoE; on the volatile mobile profiles
// that moves the score by 5-7% from seed to seed, on Puffer by about 1%.
//
// The cohort runs on one worker. On a shared two-vCPU host a neighbour can
// hold one vCPU for minutes, which halves a two-worker throughput; one
// worker measures the per-core cost of the time-wheel, arena and decide
// path, which is what changes to them move.
func fleetConfig(sz fleetSizes, sessions int, seed uint64, ctrl *core.Config, w *flightrec.Watchdog) sim.FleetConfig {
	return sim.FleetConfig{Sessions: sessions, Workers: 1, Ladder: fleetLadder, Profile: tracegen.Puffer(),
		SessionLength: sz.traceSeconds, Seed: seed, Controller: ctrl, Watchdog: w}
}

// buildFleet builds the cohort as soda-sim -fleet does (watchdog always
// attached) and advances it through the warm-up, during which every session
// starts up.
func buildFleet(sz fleetSizes, seed uint64) (*sim.Fleet, error) {
	f, err := sim.NewFleet(fleetConfig(sz, sz.sessions, seed, nil,
		flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})))
	if err != nil {
		return nil, err
	}
	f.Advance(sz.warmup)
	return f, nil
}

// fleetQuietWindow is how many consecutive Advance windows form one window
// of the quiet-window timing.
const fleetQuietWindow = 5

// fleetWindows is the timed phase: per-window wall time over the decisions
// the window made, plus window-end samples of every sampleEvery-th session.
type fleetWindows struct {
	costNS    []float64 // wall ns per decision, per window
	wall      time.Duration
	decisions uint64
	waits     uint64
	stall     units.Seconds
	simS      units.Seconds
	qoe       *fleetQoE
}

func advanceWindows(f *sim.Fleet, sz fleetSizes) fleetWindows {
	w := fleetWindows{costNS: make([]float64, sz.windows), qoe: newFleetQoE(sz)}
	before := f.Report()
	prev := before.Decisions
	for i := range w.costNS {
		start := time.Now()
		f.Advance(sz.window)
		dt := time.Since(start)
		rep := f.Report()
		w.wall += dt
		w.costNS[i] = float64(dt.Nanoseconds()) / float64(max(rep.Decisions-prev, 1))
		prev = rep.Decisions
		w.qoe.sample(f)
	}
	after := f.Report()
	w.decisions = after.Decisions - before.Decisions
	w.waits = after.Waits - before.Waits
	w.stall = after.StallSeconds - before.StallSeconds
	w.simS = after.SimSeconds - before.SimSeconds
	return w
}

// fleetQoE scores the sampled sessions from their window-end states: the
// fleet keeps no rung history, so utility is averaged over window-end rungs,
// a switch is a changed rung between consecutive samples, and the
// rebuffering ratio is the session's stall over the cohort clock.
type fleetQoE struct {
	every    int
	last     []int32
	samples  []int
	switches []int
	utility  []float64
}

func newFleetQoE(sz fleetSizes) *fleetQoE {
	n := (sz.sessions + sz.sampleEvery - 1) / sz.sampleEvery
	return &fleetQoE{every: sz.sampleEvery, last: make([]int32, n), samples: make([]int, n),
		switches: make([]int, n), utility: make([]float64, n)}
}

func (q *fleetQoE) sample(f *sim.Fleet) {
	for k := range q.last {
		_, st, _ := f.Session(k * q.every)
		if st.PrevRung < 0 {
			continue
		}
		if q.samples[k] > 0 && st.PrevRung != q.last[k] {
			q.switches[k]++
		}
		q.last[k] = st.PrevRung
		q.samples[k]++
		q.utility[k] += fleetLadder.LogUtility(int(st.PrevRung))
	}
}

func (q *fleetQoE) score(f *sim.Fleet) float64 {
	w := qoe.DefaultWeights()
	clock := float64(f.Report().SimSeconds)
	var sum float64
	var n int
	for k := range q.last {
		if q.samples[k] == 0 {
			continue
		}
		_, st, _ := f.Session(k * q.every)
		s := q.utility[k]/float64(q.samples[k]) - w.Beta*ratio(float64(st.Stall), clock)
		if q.samples[k] > 1 {
			s -= w.Gamma * float64(q.switches[k]) / float64(q.samples[k]-1)
		}
		sum += s
		n++
	}
	return ratio(sum, float64(n))
}

// checkFleetTwin advances a smaller cohort with the compiled tables off
// through the same warm-up and windows; sessions are independent, so each
// twin session must end in exactly the state of the same-index session of
// the measured cohort. The twin's controllers keep a one-entry memo only so
// they quantize their inputs at the table quantum, as the table-backed
// controllers do. The time-wheel's bucket link is not compared: it depends
// on which other sessions share a bucket.
func checkFleetTwin(f *sim.Fleet, sz fleetSizes, seed uint64) error {
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize, cfg.MemoQuantum = 1, fleetTableQuantum
	twin, err := sim.NewFleet(fleetConfig(sz, sz.twin, seed, &cfg, nil))
	if err != nil {
		return fmt.Errorf("fleet twin: %w", err)
	}
	defer twin.Close()
	twin.Advance(sz.warmup)
	for i := 0; i < sz.windows; i++ {
		twin.Advance(sz.window)
	}
	for i := 0; i < sz.twin; i++ {
		_, a, _ := f.Session(i)
		_, b, _ := twin.Session(i)
		if !sameState(a, b) {
			return fmt.Errorf("fleet twin: session %d ended in %+v with tables, %+v without", i, *a, *b)
		}
	}
	return nil
}

func sameState(a, b *arena.State) bool {
	bits := math.Float64bits
	return bits(float64(a.Buffer)) == bits(float64(b.Buffer)) && bits(float64(a.Stall)) == bits(float64(b.Stall)) &&
		bits(float64(a.Deadline)) == bits(float64(b.Deadline)) && a.PrevRung == b.PrevRung &&
		a.Segment == b.Segment && a.Trace == b.Trace && a.Cursor == b.Cursor && a.DueTick == b.DueTick
}

func runFleet(c runConfig) (*outcome, error) {
	sz := fleetSizesFor(c)
	if c.traced {
		return runFleetTraced(c, sz)
	}
	repeats := setupRepeats
	if c.small {
		repeats = 1
	}
	f, setupS, err := buildRepeated(repeats, func() (*sim.Fleet, error) { return buildFleet(sz, c.seed) },
		func(f *sim.Fleet) { f.Close() })
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := advanceWindows(f, sz)
	heap := heapMB()
	quiet := quietWindows(w.costNS, fleetQuietWindow)
	cost := sortedCopy(quiet)
	return &outcome{
		attempted: int64(w.decisions),
		values: map[string]float64{
			"setup_s":         setupS,
			"decisions_per_s": 1e9 / mean(quiet),
			"decide_p50_us":   nearestRank(cost, 0.50) / 1e3,
			"decide_p99_us":   nearestRank(cost, 0.99) / 1e3,
			"served_pct":      100,
			"heap_mb":         heap,
			"qoe_score":       w.qoe.score(f),
		},
		checkErr: checkFleetTwin(f, sz, c.seed),
	}, nil
}

// runFleetTraced reports the fleet's counts and Advance time. Timing inside
// the fleet's event handler is not reachable from outside the package, so
// the traced run is the untraced measurement plus counters read between
// windows, and its tracing overhead is zero by construction.
func runFleetTraced(c runConfig, sz fleetSizes) (*outcome, error) {
	synthStart := time.Now()
	profile := tracegen.Puffer()
	for i := 0; i < min(sz.sessions, 256); i++ {
		if _, err := profile.Session(sz.traceSeconds, c.seed, i); err != nil {
			return nil, err
		}
	}
	synthS := time.Since(synthStart).Seconds()
	compileStart := time.Now()
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize, cfg.TableQuantum, cfg.DecisionTable = 0, fleetTableQuantum, core.NewDecisionTables()
	if _, err := cfg.DecisionTable.CompileTable(cfg, fleetLadder, units.Seconds(20)); err != nil {
		return nil, err
	}
	compileS := time.Since(compileStart).Seconds()

	heap0 := heapMB()
	f, err := buildFleet(sz, c.seed)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	heap1 := heapMB()
	stats0, rt0 := fleetSolveStats(f, sz.sessions), readRuntime()
	w := advanceWindows(f, sz)
	rt1, stats1 := readRuntime(), fleetSolveStats(f, sz.sessions)
	rep := f.Report()
	decisions := float64(w.decisions)

	v := map[string]float64{
		"core.table_compile_s":               compileS,
		"tracegen.synth_s":                   synthS,
		"sim.fleet_advance_ms":               w.wall.Seconds() * 1e3 / float64(sz.windows),
		"sim.fleet_waits_per_decision":       ratio(float64(w.waits), decisions),
		"sim.fleet_stall_s_per_session_hour": ratio(float64(w.stall), float64(sz.sessions)*float64(w.simS)/3600),
		"arena.high_water":                   float64(rep.Arena.HighWater),
		"arena.slabs":                        float64(rep.Arena.Slabs),
		"arena.bytes_per_session":            (heap1 - heap0) * 1e6 / float64(sz.sessions),
	}
	stats1 = stats1.Delta(stats0)
	setCoreCounters(v, stats1, decisions)
	setRuntime(v, rt0, rt1, decisions)
	setZero(v, "driver.lag_p50_us", "driver.lag_p99_us", "driver.sched_p99_us", "driver.achieved_pct",
		"httpseg.ratelimit_ns", "httpseg.inflight_ns", "httpseg.session_ns", "httpseg.arena_ns",
		"httpseg.decide_ns", "httpseg.post_ns", "httpseg.respond_ns", "httpseg.session_p99_ns",
		"httpseg.decide_p99_ns", "sessiontable.creates_per_decision", "sessiontable.evictions_per_decision",
		"sessiontable.rejected_capacity", "core.decide_ns", "predictor.ns_per_decision",
		"sim.run_self_ns_per_decision", "trace.overhead_pct", "trace.span_gap_pct")
	return &outcome{values: v, attempted: int64(w.decisions), checkErr: checkFleetTwin(f, sz, c.seed)}, nil
}

// fleetSolveStats sums the cohort's controller counters.
func fleetSolveStats(f *sim.Fleet, sessions int) core.SolveStats {
	var s core.SolveStats
	for i := 0; i < sessions; i++ {
		ctrl, _, _ := f.Session(i)
		s.Add(ctrl.SolveStats())
	}
	return s
}
