// Fleet mode: advance hundreds of thousands of virtual players on a fixed
// worker pool, using a time-wheel over segment-completion events instead of
// one goroutine (or one full Run loop) per session.
//
// Every session steps the same Player as the single-session simulator in
// sim.go, over its own trace from a shared pool, and plans with the
// bandwidth of its trace at its own position. One host holds the entire
// cohort's state in per-worker slices and touches only the sessions whose
// next event is due. Controllers are the real thing — every session runs its
// own core.Controller in place in its worker's controller slice, sharing the
// fleet decision tables and solve cache — so fleet cohorts exercise exactly
// the production decide path.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// FleetConfig parameterises a fleet cohort.
type FleetConfig struct {
	// Sessions is the concurrent virtual-player count.
	Sessions int
	// Workers is the fixed worker-pool size; each worker exclusively owns
	// its sessions' slices and its own time-wheel, so the steady decide path
	// takes no locks. Non-positive derives it from GOMAXPROCS.
	Workers int
	// Ladder is the bitrate ladder every session streams. Required.
	Ladder video.Ladder
	// BufferCap is the player buffer cap (0 means 20 s).
	BufferCap units.Seconds
	// Controller configures every session's controller. Nil gets the fleet
	// defaults: the production config with compiled tables at quantum 0.5,
	// shared by the whole cohort.
	Controller *core.Config
	// Profile calibrates the per-session throughput process; the zero value
	// means tracegen.Puffer().
	Profile tracegen.Profile
	// SessionLength is the synthesized trace length (default 120 s; samples
	// wrap, so sessions are effectively endless).
	SessionLength units.Seconds
	// Seed makes trace synthesis — and therefore the whole cohort —
	// reproducible.
	Seed uint64
	// TickSeconds is the time-wheel granularity (0 means 10 ms). Events
	// quantize up to the next tick boundary.
	TickSeconds units.Seconds
	// Telemetry, when non-nil, receives one DecisionEvent per decision
	// through one pooled recorder per worker, which batches the worker's
	// events into the collector's ring; Close records every session's
	// solver totals and aggregates. Nil (the benchmark configuration)
	// records nothing and keeps the steady path allocation-free.
	Telemetry *telemetry.Collector
	// Watchdog, when non-nil, observes every decision with the QoE-
	// consistency detectors. Per-session detector state lives in a
	// per-worker slice of flightrec.SessionWatch sized at construction, so
	// attaching a watchdog allocates nothing on the steady path; incident
	// totals surface through FleetReport. Independent of Telemetry.
	Watchdog *flightrec.Watchdog
}

// FleetReport aggregates a cohort's progress counters.
type FleetReport struct {
	Sessions  int
	Workers   int
	Decisions uint64
	Waits     uint64
	Segments  uint64
	// StallSeconds is cumulative rebuffer time across the cohort.
	StallSeconds units.Seconds
	// SimSeconds is the stream-clock time the cohort has advanced through.
	SimSeconds units.Seconds
	// Incidents is the cohort's total QoE-watchdog incident count (zero
	// when no watchdog is attached); IncidentsPerThousand is the same
	// normalized per 1000 sessions — the gate-schema denomination.
	Incidents            uint64
	IncidentsPerThousand float64
	// Arena reports the session layout: one contiguous block per worker.
	Arena arena.Stats
}

// Time-wheel geometry: one level of 512 slots. At the default 10 ms tick the
// wheel spans 5.12 s, room for a session's event (its idle to the cap and its
// download, about one 2 s segment). An event due beyond the span parks in
// its slot and is re-parked each time the wheel visits that slot before it
// is due; such events are rare.
const (
	wheelBits  = 9
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	noSession  = ^uint32(0)
)

// wheel is one worker's time-wheel. Slots chain sessions intrusively through
// their State.Next links, so scheduling allocates nothing; State.DueTick
// tells a due session from one that laps the wheel.
type wheel struct {
	now   uint32 // current tick
	slots [wheelSlots]uint32
}

func (w *wheel) init() {
	for i := range w.slots {
		w.slots[i] = noSession
	}
}

// schedule parks session `local` to fire at absolute tick `due` (clamped to
// the future — the wheel cannot fire in the past).
func (w *wheel) schedule(states []arena.State, local uint32, due uint32) {
	if due <= w.now {
		due = w.now + 1
	}
	st := &states[local]
	st.DueTick = due
	slot := &w.slots[due&wheelMask]
	st.Next = *slot
	*slot = local
}

// advance runs the wheel forward to absolute tick `to`, invoking fire for
// every due session at its due tick. fire may (and does) reschedule.
func (w *wheel) advance(states []arena.State, to uint32, fire func(local uint32, tick uint32)) {
	for w.now < to {
		w.now++
		tick := w.now
		chain := w.slots[tick&wheelMask]
		w.slots[tick&wheelMask] = noSession
		for chain != noSession {
			st := &states[chain]
			next := st.Next
			if st.DueTick == tick {
				fire(chain, tick)
			} else {
				// Due a lap or more later: re-park in the same slot.
				w.schedule(states, chain, st.DueTick)
			}
			chain = next
		}
	}
}

// fleetWorker owns a contiguous run of sessions and drives their wheel.
// Local session i lives at index i of ctrls, states and (with a watchdog)
// watches, all sized once at setup, so the per-decision path indexes a slice
// with no pointer chase. One telemetry recorder batches the whole worker's
// events.
type fleetWorker struct {
	f       *Fleet
	base    int // global index of this worker's first session
	ctrls   []core.Controller
	states  []arena.State
	watches []flightrec.SessionWatch
	rec     *telemetry.SessionRecorder
	wheel   wheel
	ctx     abr.Context
	omega   units.Mbps                      // the estimate ctx.Predict answers
	fireFn  func(local uint32, tick uint32) // w.fire, bound once at setup

	decisions uint64
	waits     uint64
	segments  uint64
	stall     units.Seconds

	cmd chan uint32 // absolute target tick per Advance
}

// Fleet is a cohort of virtual players advancing in simulated time. Build
// with NewFleet, drive with Advance, read with Report, release with Close.
// Methods are not safe for concurrent use with each other.
type Fleet struct {
	cfg     FleetConfig
	pool    []*trace.Trace
	player  Player
	workers []*fleetWorker
	ticks   uint32 // absolute cohort clock, in wheel ticks
	barrier sync.WaitGroup
	closed  bool
}

// fleetControllerConfig is the default controller configuration for fleet
// cohorts; exported through NewFleet's nil-Controller behaviour.
func fleetControllerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DecisionTable = core.NewDecisionTables()
	cfg.TableQuantum = 0.5
	return cfg
}

// TracePool synthesizes the min(sessions, 256) throughput traces a cohort of
// sessions shares round-robin. Zero arguments take the defaults the fleet and
// the load generator share: the Puffer profile and 120 s traces. Every trace
// carries data, so no download over one ends in trace.ErrStalled.
func TracePool(profile tracegen.Profile, sessions int, length units.Seconds, seed uint64) ([]*trace.Trace, error) {
	if profile.Name == "" {
		profile = tracegen.Puffer()
	}
	if length <= 0 {
		length = units.Seconds(120)
	}
	pool := make([]*trace.Trace, min(sessions, 256))
	for i := range pool {
		tr, err := profile.Session(length, seed, i)
		if err != nil {
			return nil, fmt.Errorf("sim: synthesizing trace %d: %w", i, err)
		}
		if !(tr.MeanMbps() > 0) {
			return nil, fmt.Errorf("sim: trace %d carries no data", i)
		}
		pool[i] = tr
	}
	return pool, nil
}

// NewFleet builds the cohort: synthesizes the trace pool, splits the
// sessions into one contiguous run per worker, seats every session's
// controller and player state in its worker's slices, schedules first events
// staggered across one segment duration, and parks the worker pool. No
// decisions run until Advance.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Sessions < 1 {
		return nil, errors.New("sim: fleet needs at least one session")
	}
	if cfg.Ladder.Len() == 0 {
		return nil, errors.New("sim: fleet needs a non-empty ladder")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Sessions {
		cfg.Workers = cfg.Sessions
	}
	if cfg.BufferCap == 0 {
		cfg.BufferCap = units.Seconds(20)
	}
	if !(cfg.BufferCap >= cfg.Ladder.SegmentSeconds) || math.IsInf(float64(cfg.BufferCap), 1) {
		return nil, fmt.Errorf("sim: fleet buffer cap %v not finite and at least one segment", cfg.BufferCap)
	}
	if cfg.TickSeconds == 0 {
		cfg.TickSeconds = units.Seconds(0.01)
	}
	if !(cfg.TickSeconds > 0) || math.IsInf(float64(cfg.TickSeconds), 1) {
		return nil, fmt.Errorf("sim: fleet tick %v s not positive and finite", cfg.TickSeconds)
	}
	ctrlCfg := fleetControllerConfig()
	if cfg.Controller != nil {
		ctrlCfg = *cfg.Controller
	}
	if err := ctrlCfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: fleet controller config: %w", err)
	}

	pool, err := TracePool(cfg.Profile, cfg.Sessions, cfg.SessionLength, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, pool: pool,
		player: Player{Segment: cfg.Ladder.SegmentSeconds, BufferCap: cfg.BufferCap, Startup: 1}}

	// First events stagger across one segment duration so the cohort does
	// not thunder onto a single tick.
	ticksPerSegment := uint32(float64(cfg.Ladder.SegmentSeconds) / float64(cfg.TickSeconds))
	if ticksPerSegment < 1 {
		ticksPerSegment = 1
	}

	f.workers = make([]*fleetWorker, cfg.Workers)
	next := 0
	for wi := range f.workers {
		n := cfg.Sessions / cfg.Workers
		if wi < cfg.Sessions%cfg.Workers {
			n++
		}
		w := &fleetWorker{
			f:      f,
			base:   next,
			ctrls:  make([]core.Controller, n),
			states: make([]arena.State, n),
			rec:    cfg.Telemetry.StartSession(next),
			cmd:    make(chan uint32),
		}
		w.wheel.init()
		if cfg.Watchdog != nil {
			w.watches = make([]flightrec.SessionWatch, n)
		}
		for local := range w.ctrls {
			global := next + local
			ctrl := &w.ctrls[local]
			ctrl.Init(ctrlCfg, cfg.Ladder)
			// Bind the cost parameters now, Decide's only lazy work: with
			// tables (the fleet default) the first bind compiles the table
			// and every controller shares its parameters, so a session
			// allocates nothing past its slice elements. The solver keeps its
			// search state on the stack, so the event path is
			// allocation-free from the first fire.
			ctrl.Prewarm(cfg.BufferCap)
			tr := global % len(pool)
			w.states[local] = arena.State{
				PrevRung: int32(abr.NoRung),
				Trace:    int32(tr),
				// Stagger entry samples so pool-sharing sessions do not
				// walk identical sample sequences in lockstep.
				Cursor: int32(global / len(pool) % pool[tr].Len()),
				Next:   noSession,
			}
			w.wheel.schedule(w.states, uint32(local), 1+uint32(global)%ticksPerSegment)
		}
		// ctx invariants and the Predict binding are set once, not per
		// decision.
		w.ctx = abr.Context{
			BufferCap:     cfg.BufferCap,
			Ladder:        cfg.Ladder,
			TotalSegments: 1 << 20, // an open-ended live stream
			Predict:       func(units.Seconds) units.Mbps { return w.omega },
		}
		w.fireFn = w.fire
		next += n
		f.workers[wi] = w
		go w.run()
	}
	return f, nil
}

// run is the persistent worker loop: park on the command channel, advance
// the wheel to each target tick, signal the barrier. A closed channel ends
// the worker.
func (w *fleetWorker) run() {
	for target := range w.cmd {
		w.wheel.advance(w.states, target, w.fireFn)
		w.f.barrier.Done()
	}
}

// fire handles one session's due event on the player: idle to the cap, plan
// with the bandwidth at the session's position, run the real controller,
// then wait or download, and schedule the session again once the player's
// clock has moved through what the decision started.
//
//soda:noalloc
func (w *fleetWorker) fire(local uint32, tick uint32) {
	st := &w.states[local]
	tr := w.f.pool[st.Trace]
	p := &w.f.player
	clock := st.Clock
	p.ToCap(st)
	omega := p.Throughput(st, tr)

	w.omega = omega
	w.ctx.Now = st.Clock
	w.ctx.Buffer = st.Buffer
	w.ctx.PrevRung = int(st.PrevRung)
	w.ctx.SegmentIndex = int(st.Segment)
	w.ctx.LastThroughput = omega

	decision := w.ctrls[local].Decide(&w.ctx)
	w.decisions++

	rung := decision.Rung
	var wait units.Seconds
	if rung == abr.NoRung {
		if wait = p.Wait(st, decision.WaitSeconds); wait > 0 {
			w.waits++
		} else {
			rung = 0 // the wait rule's rung on an empty buffer
		}
	}
	if rung != abr.NoRung {
		rung = w.f.cfg.Ladder.ClampIndex(rung)
		// TracePool's traces all carry data, so the download completes.
		dl, _ := p.Download(st, tr, st.Clock, w.f.cfg.Ladder.SegmentMegabits(rung))
		w.stall += p.Deposit(st, rung, dl)
		w.segments++
	}

	if w.rec != nil {
		ev := w.rec.Start()
		ev.Session = int32(w.base) + int32(local)
		ev.AtSeconds = w.ctx.Now
		ev.Segment = int32(w.ctx.SegmentIndex)
		ev.Rung = int16(rung)
		ev.PrevRung = int16(w.ctx.PrevRung)
		ev.Buffer = w.ctx.Buffer
		ev.Throughput = omega
		ev.WaitSeconds = wait
		if rung != abr.NoRung {
			ev.Bitrate = w.f.cfg.Ladder.Mbps(rung)
		}
		w.rec.Commit()
	}
	if w.watches != nil {
		w.f.cfg.Watchdog.Observe(&w.watches[local], int32(w.base)+int32(local),
			w.ctx.Now, w.ctx.Buffer, int16(rung), int16(w.ctx.PrevRung))
	}

	due := tick + uint32(float64(st.Clock-clock)/float64(w.f.cfg.TickSeconds)+0.999999)
	w.wheel.schedule(w.states, local, due)
}

// Advance runs the whole cohort forward by window of simulated time, all
// workers in parallel, and returns when every worker has reached the target
// tick. The steady path allocates nothing: workers are persistent, commands
// are unboxed channel sends, and all per-decision state lives in the
// workers' session slices. A window that is not positive and finite is a
// no-op.
func (f *Fleet) Advance(window units.Seconds) {
	if f.closed || !(window > 0) || math.IsInf(float64(window), 1) {
		return
	}
	ticks := uint32(float64(window) / float64(f.cfg.TickSeconds))
	if ticks < 1 {
		ticks = 1
	}
	f.ticks += ticks
	f.barrier.Add(len(f.workers))
	for _, w := range f.workers {
		w.cmd <- f.ticks
	}
	f.barrier.Wait()
}

// Report aggregates the cohort's counters. Call between Advances (the
// workers are parked, so the per-worker counters are quiescent).
func (f *Fleet) Report() FleetReport {
	rep := FleetReport{
		Sessions:   f.cfg.Sessions,
		Workers:    len(f.workers),
		SimSeconds: f.cfg.TickSeconds.Scale(float64(f.ticks)),
		Arena:      arena.Stats{Shards: len(f.workers), Slabs: len(f.workers), HighWater: f.cfg.Sessions},
	}
	for _, w := range f.workers {
		rep.Decisions += w.decisions
		rep.Waits += w.waits
		rep.Segments += w.segments
		rep.StallSeconds += w.stall
	}
	if f.cfg.Watchdog != nil {
		rep.Incidents = f.cfg.Watchdog.Total()
		rep.IncidentsPerThousand = flightrec.PerThousandSessions(rep.Incidents, rep.Sessions)
	}
	return rep
}

// Session exposes one session's controller and state for inspection (tests
// and the soda-sim CLI); ok=false when the index is out of range. The
// pointers point into the owning worker's slices: do not touch them while an
// Advance is in flight.
func (f *Fleet) Session(i int) (*core.Controller, *arena.State, bool) {
	if i < 0 || i >= f.cfg.Sessions {
		return nil, nil, false
	}
	for _, w := range f.workers {
		if i < w.base+len(w.states) {
			local := i - w.base
			return &w.ctrls[local], &w.states[local], true
		}
	}
	return nil, nil, false
}

// Close stops the worker pool and, with a collector attached, records every
// session's solver totals and aggregates and flushes each worker's recorder.
// The fleet is unusable afterwards; Close is idempotent.
func (f *Fleet) Close() {
	if f.closed {
		return
	}
	f.closed = true
	col := f.cfg.Telemetry
	for _, w := range f.workers {
		close(w.cmd)
		if w.rec == nil {
			continue
		}
		for local := range w.ctrls {
			st := &w.states[local]
			col.RecordSolverStats(w.ctrls[local].SolveStats())
			col.RecordSession(int(st.Segment), st.Stall)
		}
		w.rec.Release()
	}
}
