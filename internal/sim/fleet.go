// Fleet mode: advance hundreds of thousands of virtual players on a fixed
// worker pool, using a hierarchical time-wheel over segment-completion
// events instead of one goroutine (or one full Run loop) per session.
//
// The single-session simulator in sim.go is the reference player; the fleet
// trades its trace-integration fidelity for the loadgen player model (a
// download occupies bitrate·L/throughput seconds of link time against the
// session's current trace sample) so that one host can hold the entire
// cohort's state in struct-of-arrays arenas and touch only the sessions
// whose next event is due. Controllers are the real thing — every session
// runs its own core.Controller out of the arena slab, sharing the fleet
// decision tables and solve cache — so fleet cohorts exercise exactly the
// production decide path.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// FleetConfig parameterises a fleet cohort.
type FleetConfig struct {
	// Sessions is the concurrent virtual-player count.
	Sessions int
	// Workers is the fixed worker-pool size; each worker exclusively owns
	// one arena shard of sessions and its own time-wheel, so the steady
	// decide path takes no locks. Non-positive derives it from GOMAXPROCS.
	Workers int
	// Ladder is the bitrate ladder every session streams. Required.
	Ladder video.Ladder
	// BufferCap is the player buffer cap (default 20 s).
	BufferCap units.Seconds
	// Controller configures every session's controller. Nil gets the fleet
	// defaults: production config, per-session memo disabled (the shared
	// decision tables carry the hot path; per-session memory is what limits
	// cohort size), compiled tables at quantum 0.5.
	Controller *core.Config
	// Profile calibrates the per-session throughput process; the zero value
	// means tracegen.Puffer().
	Profile tracegen.Profile
	// TracePool bounds the distinct traces synthesized and shared
	// round-robin across sessions (default min(Sessions, 256)).
	TracePool int
	// SessionLength is the synthesized trace length (default 120 s; samples
	// wrap, so sessions are effectively endless).
	SessionLength units.Seconds
	// Seed makes trace synthesis — and therefore the whole cohort —
	// reproducible.
	Seed uint64
	// TickSeconds is the time-wheel granularity (default 10 ms). Events
	// quantize up to the next tick boundary.
	TickSeconds units.Seconds
	// Telemetry, when non-nil, receives one DecisionEvent per decision via
	// per-session pooled recorders, one per session on its worker. Nil (the
	// benchmark configuration) records nothing and keeps the steady path
	// allocation-free.
	Telemetry *telemetry.Collector
	// Watchdog, when non-nil, observes every decision with the QoE-
	// consistency detectors. Per-session detector state lives in the
	// cohort's arena slots (one flightrec.SessionWatch per slab entry), so
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
	Arena                arena.Stats
}

// Time-wheel geometry: two levels of 256 buckets. At the default 10 ms tick
// the inner wheel spans 2.56 s (one segment-download cadence) and the outer
// 655 s; events beyond the outer span park in their outer bucket and lap.
const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	noSession  = ^uint32(0)
)

// wheel is one worker's hierarchical time-wheel. Buckets chain sessions
// intrusively through their arena State.Next links, so scheduling allocates
// nothing; State.DueTick disambiguates bucket collisions on expiry.
type wheel struct {
	now uint32 // current tick
	l0  [wheelSlots]uint32
	l1  [wheelSlots]uint32
}

func (w *wheel) init() {
	for i := range w.l0 {
		w.l0[i] = noSession
		w.l1[i] = noSession
	}
}

// schedule parks session `local` to fire at absolute tick `due` (clamped to
// the future — the wheel cannot fire in the past).
func (w *wheel) schedule(states []*arena.State, local uint32, due uint32) {
	if due <= w.now {
		due = w.now + 1
	}
	st := states[local]
	st.DueTick = due
	var bucket *uint32
	if due-w.now < wheelSlots {
		bucket = &w.l0[due&wheelMask]
	} else {
		bucket = &w.l1[(due>>wheelBits)&wheelMask]
	}
	st.Next = *bucket
	*bucket = local
}

// advance runs the wheel forward to absolute tick `to`, invoking fire for
// every due session at its due tick. fire may (and does) reschedule.
func (w *wheel) advance(states []*arena.State, to uint32, fire func(local uint32, tick uint32)) {
	for w.now < to {
		w.now++
		tick := w.now
		if tick&wheelMask == 0 {
			// Entering a new outer-wheel slot: cascade its chain. Sessions
			// due at the boundary tick itself fire now (re-parking would
			// clamp them a tick late); sessions due within the new inner
			// span re-park in level 0; sessions lapping the outer span land
			// back in level 1.
			slot := (tick >> wheelBits) & wheelMask
			chain := w.l1[slot]
			w.l1[slot] = noSession
			for chain != noSession {
				st := states[chain]
				next := st.Next
				if st.DueTick == tick {
					fire(chain, tick)
				} else {
					w.schedule(states, chain, st.DueTick)
				}
				chain = next
			}
		}
		chain := w.l0[tick&wheelMask]
		w.l0[tick&wheelMask] = noSession
		for chain != noSession {
			st := states[chain]
			next := st.Next
			if st.DueTick == tick {
				fire(chain, tick)
			} else {
				// Bucket collision from a cascade: not due yet, re-park.
				w.schedule(states, chain, st.DueTick)
			}
			chain = next
		}
	}
}

// constPredictor is the per-worker constant-throughput predictor. Binding
// ctx.Predict to its method value once at worker setup — and mutating omega
// per decision — avoids the per-decision closure allocation the
// single-session simulator pays.
type constPredictor struct{ omega units.Mbps }

func (p *constPredictor) predict(units.Seconds) units.Mbps { return p.omega }

// fleetWorker owns one arena shard of sessions and drives their wheel.
// Controller and state pointers come from the arena once at setup — slots
// are never freed, so they are stable for the cohort's lifetime — and the
// per-decision path is array indexing.
type fleetWorker struct {
	f       *Fleet
	shard   int
	base    int // global index of this worker's first session
	ctrls   []*core.Controller
	states  []*arena.State
	recs    []*telemetry.SessionRecorder
	watches []*flightrec.SessionWatch
	wheel   wheel
	ctx     abr.Context
	pred    constPredictor
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
	arena   *arena.Arena
	pool    [][]units.Mbps
	workers []*fleetWorker
	ticks   uint32 // absolute cohort clock, in wheel ticks
	barrier sync.WaitGroup
	closed  bool
}

// fleetControllerConfig is the default controller configuration for fleet
// cohorts; exported through NewFleet's nil-Controller behaviour.
func fleetControllerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize = 0
	cfg.DecisionTable = core.NewDecisionTables()
	cfg.TableQuantum = 0.5
	return cfg
}

// NewFleet builds the cohort: synthesizes the trace pool, carves the arena
// into per-worker shards, seats every session's controller and player state
// in its slot, schedules first events staggered across one segment duration,
// and parks the worker pool. No decisions run until Advance.
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
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = units.Seconds(20)
	}
	if cfg.BufferCap < cfg.Ladder.SegmentSeconds {
		return nil, fmt.Errorf("sim: fleet buffer cap %v below one segment (%v s)",
			cfg.BufferCap, cfg.Ladder.SegmentSeconds)
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = tracegen.Puffer()
	}
	if cfg.SessionLength <= 0 {
		cfg.SessionLength = units.Seconds(120)
	}
	if cfg.TracePool <= 0 || cfg.TracePool > cfg.Sessions {
		cfg.TracePool = cfg.Sessions
	}
	if cfg.TracePool > 256 {
		cfg.TracePool = 256
	}
	if cfg.TickSeconds <= 0 {
		cfg.TickSeconds = units.Seconds(0.01)
	}
	ctrlCfg := fleetControllerConfig()
	if cfg.Controller != nil {
		ctrlCfg = *cfg.Controller
	}
	if err := ctrlCfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: fleet controller config: %w", err)
	}

	f := &Fleet{cfg: cfg}
	f.pool = make([][]units.Mbps, cfg.TracePool)
	for i := range f.pool {
		tr, err := cfg.Profile.Session(cfg.SessionLength, cfg.Seed, i)
		if err != nil {
			return nil, fmt.Errorf("sim: synthesizing fleet trace %d: %w", i, err)
		}
		samples := tr.Samples()
		mbps := make([]units.Mbps, len(samples))
		for j, s := range samples {
			mbps[j] = s.Mbps
		}
		f.pool[i] = mbps
	}

	perShard := (cfg.Sessions + cfg.Workers - 1) / cfg.Workers
	f.arena = arena.New(cfg.Workers, perShard)

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
			shard:  wi,
			base:   next,
			ctrls:  make([]*core.Controller, n),
			states: make([]*arena.State, n),
			cmd:    make(chan uint32),
		}
		w.wheel.init()
		if cfg.Telemetry != nil {
			w.recs = make([]*telemetry.SessionRecorder, n)
		}
		if cfg.Watchdog != nil {
			w.watches = make([]*flightrec.SessionWatch, n)
		}
		for local := 0; local < n; local++ {
			global := next + local
			ctrl, st, watch, ok := f.arena.Alloc(wi)
			if !ok {
				return nil, fmt.Errorf("sim: fleet arena exhausted at session %d", global)
			}
			ctrl.Init(ctrlCfg, cfg.Ladder)
			// Bind the cost model, table and solver scratch now: these are
			// Decide's only lazy allocations, and paying them at setup keeps
			// the steady event path allocation-free from the first fire.
			ctrl.Prewarm(cfg.BufferCap)
			*st = arena.State{
				PrevRung: int32(abr.NoRung),
				Trace:    int32(global % len(f.pool)),
				// Stagger cursors so pool-sharing sessions do not walk
				// identical sample sequences in lockstep.
				Cursor: int32(global / len(f.pool)),
				Next:   noSession,
			}
			w.ctrls[local] = ctrl
			w.states[local] = st
			if cfg.Telemetry != nil {
				w.recs[local] = cfg.Telemetry.StartSession(global)
			}
			if cfg.Watchdog != nil {
				// Detector state lives in the arena slot, under the same
				// shard-ownership contract as ctrls and states.
				w.watches[local] = watch
			}
			w.wheel.schedule(w.states, uint32(local), 1+uint32(global)%ticksPerSegment)
		}
		// ctx invariants are set once; Predict binds the reusable
		// constant predictor's method value here, not per decision.
		w.ctx = abr.Context{
			BufferCap:     cfg.BufferCap,
			Ladder:        cfg.Ladder,
			TotalSegments: 1 << 20, // an open-ended live stream
		}
		w.ctx.Predict = w.pred.predict
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

// fire handles one session's due event: charge playback since the decision
// is instantaneous at event time, pull the session's next throughput sample,
// run the real controller, apply the StepPlayer model, and schedule the
// completion of whatever the decision started.
//
//soda:noalloc
func (w *fleetWorker) fire(local uint32, tick uint32) {
	st := w.states[local]
	samples := w.f.pool[st.Trace]
	omega := samples[int(st.Cursor)%len(samples)]
	st.Cursor++

	w.pred.omega = omega
	w.ctx.Now = w.f.cfg.TickSeconds.Scale(float64(tick))
	w.ctx.Buffer = st.Buffer
	w.ctx.PrevRung = int(st.PrevRung)
	w.ctx.SegmentIndex = int(st.Segment)
	w.ctx.LastThroughput = omega

	decision := w.ctrls[local].Decide(&w.ctx)
	w.decisions++

	rung := abr.NoRung
	var bitrate units.Mbps
	if decision.Rung == abr.NoRung {
		w.waits++
	} else {
		rung = w.f.cfg.Ladder.ClampIndex(decision.Rung)
		bitrate = w.f.cfg.Ladder.Mbps(rung)
		w.segments++
	}
	dt, stall := StepPlayer(st, rung, bitrate, decision.WaitSeconds, omega,
		w.f.cfg.Ladder.SegmentSeconds, w.f.cfg.BufferCap)
	w.stall += stall

	if w.recs != nil {
		if rec := w.recs[local]; rec != nil {
			ev := rec.Start()
			ev.AtSeconds = w.ctx.Now
			ev.Segment = st.Segment
			ev.Rung = int16(rung)
			ev.PrevRung = int16(w.ctx.PrevRung)
			ev.Buffer = w.ctx.Buffer
			ev.Throughput = omega
			if rung == abr.NoRung {
				ev.WaitSeconds = dt
			} else {
				ev.Bitrate = bitrate
			}
			rec.Commit()
		}
	}
	if w.watches != nil {
		w.f.cfg.Watchdog.Observe(w.watches[local], int32(w.base)+int32(local),
			w.ctx.Now, w.ctx.Buffer, int16(rung), int16(w.ctx.PrevRung))
	}

	due := tick + uint32(float64(dt)/float64(w.f.cfg.TickSeconds)+0.999999)
	w.wheel.schedule(w.states, local, due)
}

// StepPlayer applies one decision to a session's player state under the
// one-throughput-sample-per-segment model sim.Fleet and loadgen share, and
// returns the simulated time the decision spans and the stall it charged.
//
// A wait (rung < 0) idles for wait seconds (half a segment when wait is
// outside (0, segment]), at most the buffer. A download of rung at bitrate
// takes bitrate·segment/omega seconds of link time (omega floored at
// 0.1 Mb/s), deposits one segment, charges any underflow to st.Stall, caps
// the buffer at bufferCap and commits the rung and segment index.
//
//soda:noalloc
func StepPlayer(st *arena.State, rung int, bitrate units.Mbps, wait units.Seconds, omega units.Mbps,
	segment, bufferCap units.Seconds) (dt, stall units.Seconds) {
	if rung < 0 {
		if wait <= 0 || wait > segment {
			wait = segment.Scale(0.5)
		}
		if wait > st.Buffer {
			wait = st.Buffer
		}
		st.Buffer -= wait
		return wait, 0
	}
	thr := float64(omega)
	if thr < 0.1 {
		thr = 0.1 // a stalled link still finishes the download eventually
	}
	dl := units.Seconds(float64(bitrate) * float64(segment) / thr)
	// (Buffer + segment) − dl, in this order: the fleet's state is pinned
	// bit-identical by its twin check.
	buffer := st.Buffer + segment - dl
	if buffer < 0 {
		stall = -buffer
		st.Stall += stall
		buffer = 0
	}
	if buffer > bufferCap {
		buffer = bufferCap
	}
	st.Buffer = buffer
	st.PrevRung = int32(rung)
	st.Segment++
	return dl, stall
}

// Advance runs the whole cohort forward by window of simulated time, all
// workers in parallel, and returns when every worker has reached the target
// tick. The steady path allocates nothing: workers are persistent, commands
// are unboxed channel sends, and all per-decision state lives in the arena.
func (f *Fleet) Advance(window units.Seconds) {
	if f.closed || window <= 0 {
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
		Arena:      f.arena.Stats(),
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

// Sessions exposes one session's controller and state for inspection (tests
// and the soda-sim CLI); ok=false when the index is out of range. The
// returned pointers follow the arena ownership contract: do not touch them
// while an Advance is in flight.
func (f *Fleet) Session(i int) (*core.Controller, *arena.State, bool) {
	if i < 0 || i >= f.cfg.Sessions {
		return nil, nil, false
	}
	for _, w := range f.workers {
		if i < w.base+len(w.states) {
			local := i - w.base
			return w.ctrls[local], w.states[local], true
		}
	}
	return nil, nil, false
}

// Close stops the worker pool and flushes telemetry recorders. The fleet is
// unusable afterwards; Close is idempotent.
func (f *Fleet) Close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, w := range f.workers {
		close(w.cmd)
		if w.recs != nil {
			for local, rec := range w.recs {
				if rec == nil {
					continue
				}
				st := w.states[local]
				rec.Finish(solverStats(w.ctrls[local].SolveStats()), int(st.Segment), st.Stall)
			}
		}
	}
}
