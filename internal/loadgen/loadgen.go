// Package loadgen replays calibrated ABR workloads against the /decide
// control plane and reports the latency distribution the serving path
// actually delivered — the measurement half of the fleet-scale serving
// story, and the feeder of the CI p99 gate.
//
// Two arrival processes are supported:
//
//   - Closed loop: N virtual sessions, each issuing its next decide as soon
//     as the previous one returns (plus optional think time). Throughput of
//     the measured system bounds the offered load, so closed loop measures
//     service time under self-limiting clients.
//   - Open loop: Poisson arrivals at a target rate, dispatched to a worker
//     pool. Latency is measured from each request's *scheduled* arrival
//     time, so queueing delay counts — the honest fleet-operator view,
//     immune to coordinated omission.
//
// Each virtual session walks a bandwidth trace drawn from an
// internal/tracegen profile (the paper-calibrated throughput processes) and
// runs the fleet simulator's player model (sim.StepPlayer): decisions advance
// a simulated buffer, which feeds back into the next request, and buffer
// underflow is charged as stall time. Sessions share a bounded pool of traces
// round-robin so 50k sessions do not need 50k trace syntheses, and their
// player and watchdog state live in flat per-run slices rather than one heap
// object per session. Both loops run on fixed worker pools: session count
// scales the slices, not the goroutine count.
//
// Targets are pluggable: InProc drives a DecideService directly (no HTTP,
// the configuration the allocation and p99 gates use), HTTPTarget drives a
// live soda-server over its wire protocol.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/sessiontable"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
)

// Mode selects the arrival process.
type Mode int

const (
	// ClosedLoop runs N sessions that each wait for their previous decide.
	ClosedLoop Mode = iota
	// OpenLoop runs Poisson arrivals at Config.RPS regardless of completions.
	OpenLoop
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == OpenLoop {
		return "open"
	}
	return "closed"
}

// Target is where decides go. Implementations must be safe for concurrent
// use; the runner serialises calls per session but not across sessions.
type Target interface {
	Decide(req *httpseg.DecideRequest) (httpseg.DecideResult, error)
}

// Config parameterises one load-generation run.
type Config struct {
	// Mode is the arrival process.
	Mode Mode
	// Sessions is the virtual-session count (concurrent streams).
	Sessions int
	// Requests is the total decide budget for the run.
	Requests int
	// RPS is the open-loop target arrival rate; ignored in closed loop.
	RPS float64
	// ThinkTime is the closed-loop pause between a session's decides.
	ThinkTime time.Duration
	// Workers is the open-loop dispatch pool size (default 16).
	Workers int
	// Profile calibrates the per-session throughput process; the zero value
	// means tracegen.Puffer().
	Profile tracegen.Profile
	// SessionLength is the synthesized trace length per session pool entry
	// (default 120 s — samples wrap when a session outlives its trace).
	SessionLength units.Seconds
	// TracePool bounds the number of distinct traces synthesized and shared
	// round-robin across sessions (default min(Sessions, 256)).
	TracePool int
	// Seed makes trace synthesis and Poisson arrivals reproducible.
	Seed uint64
	// BufferCap is the player model's buffer cap (default 20 s).
	BufferCap units.Seconds
	// SegmentSeconds is the player model's segment duration (default 2 s).
	SegmentSeconds units.Seconds
	// Watchdog, when non-nil, observes every successful decide with the QoE-
	// consistency detectors, from the client's side of the wire: the virtual
	// player's buffer trajectory and rung history feed the same detectors the
	// server and fleet simulator run. Incident totals land in the report
	// (and its per-1k-sessions gate field). Detector state lives in a flat
	// per-session slice, so observation allocates nothing per decide.
	Watchdog *flightrec.Watchdog
}

// normalize fills defaults; it does not mutate the caller's copy.
func (c Config) normalize() Config {
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Profile.Name == "" {
		c.Profile = tracegen.Puffer()
	}
	if c.SessionLength <= 0 {
		c.SessionLength = units.Seconds(120)
	}
	if c.TracePool <= 0 || c.TracePool > c.Sessions {
		c.TracePool = c.Sessions
	}
	if c.TracePool > 256 {
		c.TracePool = 256
	}
	if c.BufferCap <= 0 {
		c.BufferCap = units.Seconds(20)
	}
	if c.SegmentSeconds <= 0 {
		c.SegmentSeconds = units.Seconds(2)
	}
	return c
}

// validate rejects configurations the runner cannot execute.
func (c Config) validate() error {
	if c.Requests <= 0 {
		return fmt.Errorf("loadgen: Requests must be positive, got %d", c.Requests)
	}
	if c.Mode == OpenLoop && c.RPS <= 0 {
		return fmt.Errorf("loadgen: open loop needs a positive RPS, got %g", c.RPS)
	}
	return nil
}

// runner is the per-run state shared by the worker pool. Each virtual
// session is one index into parallel slices: its player state
// (arena.State.Buffer/Trace/Cursor), its wire key, the lock serialising its
// in-flight decide with its state update, and its watchdog state. In the
// closed loop each worker owns a fixed residue class of session indices, so
// those locks are uncontended there; the open loop dispatches arrivals to
// arbitrary workers and relies on them.
type runner struct {
	cfg     Config
	target  Target
	states  []arena.State
	keys    []string
	locks   []sync.Mutex
	watches []flightrec.SessionWatch
	pool    [][]units.Mbps
	latency *telemetry.Histogram
	epoch   time.Time

	issued   atomic.Int64
	ok       atomic.Uint64
	rejRate  atomic.Uint64
	rejLoad  atomic.Uint64
	rejCap   atomic.Uint64
	rejDrain atomic.Uint64
	errors   atomic.Uint64
}

// Run executes one load-generation run and reports the outcome. The latency
// histogram lives on a private telemetry registry. Each quantile in the
// report is the upper edge of the histogram bucket holding it: never below
// the true quantile and at most 12.5% above it (Histogram.Quantile).
func Run(cfg Config, target Target) (Report, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	r := &runner{cfg: cfg, target: target}
	r.latency = telemetry.NewRegistry().Histogram("soda_loadgen_decide_latency_seconds",
		"queue-inclusive decide latency observed by the load generator", telemetry.USeconds)
	if err := r.buildSessions(); err != nil {
		return Report{}, err
	}

	start := time.Now()
	r.epoch = start
	if cfg.Mode == OpenLoop {
		r.runOpen()
	} else {
		r.runClosed()
	}
	elapsed := time.Since(start).Seconds()

	rep := Report{
		Mode:             cfg.Mode.String(),
		Sessions:         cfg.Sessions,
		Requests:         uint64(r.issued.Load()),
		OK:               r.ok.Load(),
		RejectedRate:     r.rejRate.Load(),
		RejectedLoad:     r.rejLoad.Load(),
		RejectedCapacity: r.rejCap.Load(),
		RejectedDraining: r.rejDrain.Load(),
		Errors:           r.errors.Load(),
		DurationSeconds:  elapsed,
		P50Ms:            r.latency.Quantile(0.50) * 1e3,
		P99Ms:            r.latency.Quantile(0.99) * 1e3,
		P999Ms:           r.latency.Quantile(0.999) * 1e3,
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed
	}
	if rep.Requests > 0 {
		rep.RejectedPct = 100 * float64(rep.Rejected()) / float64(rep.Requests)
	}
	// An in-process target exposes the server's lifecycle counters; fold the
	// admission/eviction story into the report when available.
	if st, ok := target.(interface{ SessionStats() sessiontable.Stats }); ok {
		stats := st.SessionStats()
		rep.ServerEvictions = stats.EvictedIdle
		rep.ServerSessions = stats.Active
	}
	for i := range r.states {
		rep.StallSeconds += float64(r.states[i].Stall)
	}
	if cfg.Watchdog != nil {
		rep.QoEIncidents = cfg.Watchdog.Total()
		rep.QoEIncidentsPer1k = flightrec.PerThousandSessions(rep.QoEIncidents, cfg.Sessions)
	}
	return rep, nil
}

// buildSessions synthesizes the shared trace pool and lays out every virtual
// session's state.
func (r *runner) buildSessions() error {
	pool := make([][]units.Mbps, r.cfg.TracePool)
	for i := range pool {
		tr, err := r.cfg.Profile.Session(r.cfg.SessionLength, r.cfg.Seed, i)
		if err != nil {
			return fmt.Errorf("loadgen: synthesizing trace %d: %w", i, err)
		}
		samples := tr.Samples()
		mbps := make([]units.Mbps, len(samples))
		for j, s := range samples {
			mbps[j] = s.Mbps
		}
		pool[i] = mbps
	}
	r.pool = pool

	r.states = make([]arena.State, r.cfg.Sessions)
	r.keys = make([]string, r.cfg.Sessions)
	r.locks = make([]sync.Mutex, r.cfg.Sessions)
	if r.cfg.Watchdog != nil {
		r.watches = make([]flightrec.SessionWatch, r.cfg.Sessions)
	}
	for i := range r.states {
		// Stagger cursors so pool-sharing sessions do not move in lockstep
		// through identical throughput samples.
		r.states[i] = arena.State{Trace: int32(i % len(pool)), Cursor: int32(i / len(pool)), PrevRung: int32(abr.NoRung)}
		r.keys[i] = fmt.Sprintf("lg-%d", i)
	}
	return nil
}

// step issues one decide for session index i and advances its player model,
// observing latency from the given start time (scheduled arrival in open
// loop, call time in closed loop).
func (r *runner) step(i int, start time.Time) {
	r.locks[i].Lock()
	defer r.locks[i].Unlock()

	st := &r.states[i]
	samples := r.pool[st.Trace]
	throughput := samples[int(st.Cursor)%len(samples)]
	st.Cursor++
	req := httpseg.DecideRequest{
		Session:    r.keys[i],
		Buffer:     st.Buffer,
		Throughput: throughput,
		BufferCap:  r.cfg.BufferCap,
		Segment:    -1,
	}
	res, err := r.target.Decide(&req)
	if err != nil {
		r.errors.Add(1)
		return
	}
	switch res.Status {
	case httpseg.StatusOK:
		r.ok.Add(1)
		r.latency.Observe(time.Since(start).Seconds())
		prev := st.PrevRung
		sim.StepPlayer(st, res.Rung, units.Mbps(res.BitrateMbps), units.Seconds(res.WaitSeconds),
			throughput, r.cfg.SegmentSeconds, r.cfg.BufferCap)
		if r.watches != nil {
			// Observe with the client-side view: the buffer reported in the
			// request and the rung the server answered with.
			r.cfg.Watchdog.Observe(&r.watches[i], int32(i),
				units.Seconds(time.Since(r.epoch).Seconds()), req.Buffer,
				int16(res.Rung), int16(prev))
		}
	case httpseg.StatusRejectedRate:
		r.rejRate.Add(1)
	case httpseg.StatusRejectedLoad:
		r.rejLoad.Add(1)
	case httpseg.StatusRejectedCapacity:
		r.rejCap.Add(1)
	case httpseg.StatusRejectedDraining:
		r.rejDrain.Add(1)
	}
}

// runClosed runs the closed loop on a fixed worker pool: worker w owns the
// sessions whose index is ≡ w (mod workers) and walks them in rounds, so a
// million-session run costs Workers goroutines, not a million. The request
// budget is split across sessions up front — a shared first-come-first-served
// budget would let the earliest-scheduled workers spend it all before the
// rest even start (in-process decides are single-digit microseconds),
// leaving most sessions untouched. Round-robin rounds preserve the old
// per-session pacing: every session issues its j-th request before any
// session issues its j+1-th, with think time between a worker's rounds.
func (r *runner) runClosed() {
	sessions := len(r.states)
	workers := r.cfg.Workers
	if workers > sessions {
		workers = sessions
	}
	quota := r.cfg.Requests / sessions
	extra := r.cfg.Requests % sessions
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				issued := false
				for i := w; i < sessions; i += workers {
					n := quota
					if i < extra {
						n++
					}
					if round < n {
						r.step(i, time.Now())
						issued = true
					}
				}
				if !issued {
					return
				}
				if r.cfg.ThinkTime > 0 {
					time.Sleep(r.cfg.ThinkTime)
				}
			}
		}(w)
	}
	wg.Wait()
	r.issued.Store(int64(r.cfg.Requests))
}

// arrival is one scheduled open-loop request.
type arrival struct {
	idx int
	due time.Time
}

// runOpen runs the open loop: a pacer draws exponential inter-arrival gaps
// at the target rate and stamps each request's scheduled time; workers
// execute them. Latency is measured from the stamp, so time spent queued
// behind a slow server counts against the server — the whole point of an
// open-loop measurement.
func (r *runner) runOpen() {
	work := make(chan arrival, 4*r.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				r.step(a.idx, a.due)
			}
		}()
	}

	rng := rand.New(rand.NewSource(int64(r.cfg.Seed)))
	interval := float64(time.Second) / r.cfg.RPS
	due := time.Now()
	for i := 0; i < r.cfg.Requests; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		work <- arrival{idx: i % len(r.states), due: due}
	}
	close(work)
	wg.Wait()
	r.issued.Store(int64(r.cfg.Requests))
}

// Report is the outcome of one run, JSON-shaped for BENCH_*.json artifacts.
type Report struct {
	Mode             string  `json:"mode"`
	Sessions         int     `json:"sessions"`
	Requests         uint64  `json:"requests"`
	OK               uint64  `json:"ok"`
	RejectedRate     uint64  `json:"rejected_ratelimit"`
	RejectedLoad     uint64  `json:"rejected_inflight"`
	RejectedCapacity uint64  `json:"rejected_capacity"`
	RejectedDraining uint64  `json:"rejected_draining"`
	Errors           uint64  `json:"errors"`
	DurationSeconds  float64 `json:"duration_seconds"`
	AchievedRPS      float64 `json:"achieved_rps"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	P999Ms           float64 `json:"p999_ms"`
	RejectedPct      float64 `json:"rejected_pct"`
	// ServerEvictions and ServerSessions are filled when the target exposes
	// sessiontable stats (the in-process configuration).
	ServerEvictions uint64 `json:"server_evictions"`
	ServerSessions  int    `json:"server_sessions_active"`
	// QoEIncidents is the watchdog's incident total for the run (zero when
	// no watchdog is attached); QoEIncidentsPer1k normalizes it per 1000
	// sessions — the gate-schema denomination.
	QoEIncidents      uint64  `json:"qoe_incidents"`
	QoEIncidentsPer1k float64 `json:"qoe_incidents_per_1k_sessions"`
	// StallSeconds is the rebuffering the virtual players' buffer model
	// charged across all sessions (sim.StepPlayer).
	StallSeconds float64 `json:"stall_seconds"`
}

// Rejected is the total shed count across all rejection reasons.
func (r Report) Rejected() uint64 {
	return r.RejectedRate + r.RejectedLoad + r.RejectedCapacity + r.RejectedDraining
}

// Gate checks the report against the CI thresholds: p99 decide latency in
// milliseconds, rejection percentage, and QoE-watchdog incidents per 1000
// sessions. Non-positive maxP99Ms and maxIncidentsPer1k skip those checks;
// a negative maxRejectedPct skips that one. Transport errors always fail.
func (r Report) Gate(maxP99Ms, maxRejectedPct, maxIncidentsPer1k float64) error {
	if r.Errors > 0 {
		return fmt.Errorf("loadgen: %d transport errors", r.Errors)
	}
	if r.OK == 0 {
		return fmt.Errorf("loadgen: no successful decides (of %d requests)", r.Requests)
	}
	if maxP99Ms > 0 && r.P99Ms > maxP99Ms {
		return fmt.Errorf("loadgen: p99 decide latency %.3f ms exceeds the %.3f ms gate", r.P99Ms, maxP99Ms)
	}
	if maxRejectedPct >= 0 && r.RejectedPct > maxRejectedPct {
		return fmt.Errorf("loadgen: %.2f%% of requests rejected, gate is %.2f%%", r.RejectedPct, maxRejectedPct)
	}
	if maxIncidentsPer1k > 0 && r.QoEIncidentsPer1k > maxIncidentsPer1k {
		return fmt.Errorf("loadgen: %.1f QoE incidents per 1k sessions, gate is %.1f",
			r.QoEIncidentsPer1k, maxIncidentsPer1k)
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
