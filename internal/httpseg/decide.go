// Package httpseg is soda-server's /decide control plane: server-side SODA
// over HTTP. A client reports its playback state
// (`GET /decide?session=...&buffer=...&throughput=...`) and receives the rung
// its session's controller picks, behind admission control (per-client rate
// limit, in-flight bound, session-table capacity, drain) and with every
// decision recorded on the telemetry collector and the flight recorder.
// Segments themselves travel over internal/proto on a netem-shaped listener;
// this package serves no media.
//
// The package parses query floats and writes JSON replies, so it is a
// sanctioned laundering site:
//
//soda:wire-boundary
package httpseg

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/sessiontable"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/video"
)

// defaultBufferCap is the buffer cap (seconds) a /decide request gets when it
// does not pass cap=; the decision table for it is compiled at service start.
const defaultBufferCap = 20.0

// Control-plane defaults, overridable via DecideOptions (and the
// corresponding soda-server flags).
const (
	// DefaultMaxSessions caps the session table when DecideOptions leaves
	// MaxSessions zero.
	DefaultMaxSessions = 1 << 16
	// DefaultSessionTTL is the idle-eviction threshold when DecideOptions
	// leaves SessionTTL zero.
	DefaultSessionTTL = 5 * time.Minute
	// DefaultMaxInflight bounds concurrent decides when DecideOptions leaves
	// MaxInflight zero.
	DefaultMaxInflight = 512
)

// DecideOptions parameterises the /decide control plane. The zero value gets
// production defaults; explicit negatives disable the individual limits
// where documented.
type DecideOptions struct {
	// CacheEntries sizes the shared solve cache (non-positive disables
	// sharing).
	CacheEntries int
	// TableQuantum enables the compiled decision tables at that quantization
	// step (non-positive disables them).
	TableQuantum float64
	// MaxSessions caps the live session table; 0 means DefaultMaxSessions.
	MaxSessions int
	// SessionTTL is the idle-eviction threshold of the session table;
	// 0 means DefaultSessionTTL, negative disables idle eviction.
	SessionTTL time.Duration
	// MaxInflight bounds concurrent decides (excess requests are shed with
	// 503 + Retry-After); 0 means DefaultMaxInflight, negative disables the
	// bound.
	MaxInflight int
	// RPSPerClient enables per-client token-bucket rate limiting at that
	// sustained request rate (429 + Retry-After when exhausted); non-positive
	// disables limiting.
	RPSPerClient float64
	// BurstPerClient is the token-bucket burst capacity; non-positive
	// defaults to 2x RPSPerClient.
	BurstPerClient float64
	// FlightRecorder, when non-nil, receives one record per request: the
	// service-clock stamps of its stage boundaries (ratelimit, inflight,
	// session, arena, decide, then the reply tail), from which it serves the
	// six stage spans and feeds the five pipeline stages' latency histograms
	// (a served request's whole latency goes only into
	// soda_server_decide_latency_seconds). Attached,
	// it costs a served request three more clock reads (seven in all, one per
	// stage boundary) and one ring append; nil records nothing. Either way
	// the steady decide path allocates nothing.
	FlightRecorder *flightrec.Recorder
	// Watchdog, when non-nil, observes every served decision with the QoE-
	// consistency detectors. Per-session detector state lives in the session
	// entry alongside the controller, so observation is allocation-free and
	// serialised by the same per-session entry lock as the decide itself.
	Watchdog *flightrec.Watchdog
}

// normalize fills in defaults.
func (o DecideOptions) normalize() DecideOptions {
	if o.MaxSessions == 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.SessionTTL == 0 {
		o.SessionTTL = DefaultSessionTTL
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.RPSPerClient > 0 && o.BurstPerClient <= 0 {
		o.BurstPerClient = 2 * o.RPSPerClient
	}
	return o
}

// DecideService runs server-side SODA: clients report their playback state
// (`GET /decide?session=...&buffer=...&throughput=...`) and receive the rung
// the controller picks. Each session id gets its own controller so decisions
// stay a pure function of that session's history; all sessions share one
// fleet solve cache and decision-table set.
//
// Session lifecycle is owned by the sessiontable control plane: a sharded
// table with idle (TTL) eviction, per-client token-bucket admission, a
// bounded in-flight semaphore for backpressure, and graceful drain. The
// table only manages lifecycle — solver inputs come exclusively from the
// request and the session's own history — so eviction and recreation can
// never change a decision (TestSessionTableConformance pins this).
//
// Every decision is recorded on the telemetry collector — from here, the
// call site, after Decide returns — which is what makes soda-server's
// /metrics and /debug/decisions show live solver traffic.
type DecideService struct {
	ladder video.Ladder
	cache  *core.SolveCache
	tables *core.DecisionTables
	// policy is the controller configuration every session is seated on:
	// the production defaults plus this service's shared cache and table
	// set, validated once.
	policy *core.Policy
	col    *telemetry.Collector

	sessions *sessiontable.Table[decideSession]
	limiter  *sessiontable.Limiter
	inflight *sessiontable.Semaphore
	ttl      time.Duration

	flight   *flightrec.Recorder
	watchdog *flightrec.Watchdog
	// start is the service clock's origin. Every timestamp the service
	// takes — limiter and session-table stamps, DecisionEvent.AtSeconds
	// (the serving-path analogue of the simulator's stream clock), solve and
	// request latencies, flight-recorder spans — is nanoseconds since start
	// on the monotonic clock, read by clock.
	start time.Time

	cacheEntries  *telemetry.Gauge
	cacheCapacity *telemetry.Gauge
	liveSessions  *telemetry.Gauge
	inflightGauge *telemetry.Gauge
	tableCount    *telemetry.Gauge
	tableCells    *telemetry.Gauge

	evictions        *telemetry.Counter
	rejectedRate     *telemetry.Counter
	rejectedLoad     *telemetry.Counter
	rejectedCapacity *telemetry.Counter
	rejectedDraining *telemetry.Counter
	decideLatency    *telemetry.Histogram
}

// decideSession is everything the service keeps for one session, held by
// value in its session-table entry: the controller, the session history the
// client may leave to the server (previous rung, segment index), and the QoE
// watchdog's detector state. Eviction drops it with the entry.
type decideSession struct {
	ctrl     core.Controller
	prevRung int32
	segment  int32
	watch    flightrec.SessionWatch
}

// NewDecideService builds the service. col may be nil to run unobserved (the
// instruments then live on a private, unexported registry). With tables
// enabled, the table for the handler's default buffer cap is compiled
// eagerly here so the first session does not pay the compile on its first
// request; per-request caps compile lazily, bounded by the table budget:
// identities past it get fallback-only stubs the set does not keep, so cap
// churn cannot grow the table set without bound. Each compile within the
// budget still costs seconds of CPU on the requesting goroutine (ROADMAP
// item 5).
func NewDecideService(ladder video.Ladder, opts DecideOptions, col *telemetry.Collector) (*DecideService, error) {
	if ladder.Len() == 0 {
		return nil, fmt.Errorf("httpseg: decide service needs a non-empty ladder")
	}
	opts = opts.normalize()
	s := &DecideService{
		ladder:   ladder,
		col:      col,
		ttl:      opts.SessionTTL,
		flight:   opts.FlightRecorder,
		watchdog: opts.Watchdog,
		start:    time.Now(),
	}
	ttlNanos := opts.SessionTTL.Nanoseconds()
	if opts.SessionTTL < 0 {
		ttlNanos = 0
	}
	s.sessions = sessiontable.New[decideSession](sessiontable.Config{
		MaxSessions: opts.MaxSessions,
		TTLNanos:    ttlNanos,
	})
	if opts.RPSPerClient > 0 {
		s.limiter = sessiontable.NewLimiter(opts.RPSPerClient, opts.BurstPerClient)
	}
	if opts.MaxInflight > 0 {
		s.inflight = sessiontable.NewSemaphore(opts.MaxInflight)
	}
	cfg := core.DefaultConfig()
	cfg.TableQuantum = opts.TableQuantum
	if opts.CacheEntries > 0 {
		s.cache = core.NewSolveCache(opts.CacheEntries)
		cfg.SharedCache = s.cache
	}
	if opts.TableQuantum > 0 {
		s.tables = core.NewDecisionTables()
		cfg.DecisionTable = s.tables
		if _, err := s.tables.CompileTable(cfg, ladder, units.Seconds(defaultBufferCap)); err != nil {
			return nil, fmt.Errorf("httpseg: compiling decision table: %w", err)
		}
	}
	policy, err := core.NewPolicy(cfg, ladder)
	if err != nil {
		return nil, fmt.Errorf("httpseg: decide session config: %w", err)
	}
	s.policy = policy
	reg := telemetry.NewRegistry() // private sink when running unobserved
	if col != nil {
		reg = col.Registry
	}
	s.cacheEntries = reg.Gauge("soda_server_shared_cache_entries",
		"live entries in the server's shared solve cache", telemetry.None)
	s.cacheCapacity = reg.Gauge("soda_server_shared_cache_capacity",
		"capacity of the server's shared solve cache", telemetry.None)
	s.liveSessions = reg.Gauge("soda_server_sessions_active",
		"decision sessions currently tracked", telemetry.None)
	s.inflightGauge = reg.Gauge("soda_server_inflight_decides",
		"decides currently holding an in-flight slot", telemetry.None)
	s.tableCount = reg.Gauge("soda_server_decision_tables",
		"compiled decision tables resident in the server's table set", telemetry.None)
	s.tableCells = reg.Gauge("soda_server_decision_table_cells",
		"total compiled decision-table cells resident", telemetry.None)
	s.evictions = reg.Counter("soda_server_evictions_total",
		"sessions evicted after idling past the TTL, by the sweep or to admit a new session", telemetry.None)
	rejected := func(reason string) *telemetry.Counter {
		return reg.Counter("soda_server_rejected_total",
			"decide requests shed by the control plane, by reason", telemetry.None,
			telemetry.Label{Key: "reason", Value: reason})
	}
	s.rejectedRate = rejected("ratelimit")
	s.rejectedLoad = rejected("inflight")
	s.rejectedCapacity = rejected("capacity")
	s.rejectedDraining = rejected("draining")
	s.decideLatency = reg.Histogram("soda_server_decide_latency_seconds",
		"wall-clock latency of the full /decide control-plane path", telemetry.USeconds)
	return s, nil
}

// RefreshMetrics updates the pull-only gauges (cache occupancy, live session
// count, in-flight decides) and advances soda_server_evictions_total to the
// session table's own eviction count, which covers both the sweep and a full
// shard's reclaim on Acquire; MetricsHandler runs it as an onScrape hook.
func (s *DecideService) RefreshMetrics() {
	s.evictions.AdvanceTo(float64(s.sessions.Stats().EvictedIdle))
	if s.cache != nil {
		st := s.cache.Stats()
		s.cacheEntries.Set(float64(st.Entries))
		s.cacheCapacity.Set(float64(st.Capacity))
	}
	if s.tables != nil {
		st := s.tables.Stats()
		s.tableCount.Set(float64(st.Tables))
		s.tableCells.Set(float64(st.Cells))
	}
	s.liveSessions.Set(float64(s.sessions.Len()))
	s.inflightGauge.Set(float64(s.inflight.InFlight()))
}

// clock reads the service clock: nanoseconds since the service started. It
// reads only the monotonic clock, so a wall-clock step moves no stamp.
func (s *DecideService) clock() int64 { return int64(time.Since(s.start)) }

// SweepSessions evicts sessions idle past the TTL and idle rate-limit
// buckets as of now, and returns the session eviction count. The server runs
// it periodically; harnesses embedding the service in-process call it at
// their own cadence.
func (s *DecideService) SweepSessions(now time.Time) int {
	at := now.Sub(s.start).Nanoseconds()
	n := s.sessions.Sweep(at)
	idle := s.ttl.Nanoseconds()
	if idle <= 0 {
		idle = time.Minute.Nanoseconds()
	}
	s.limiter.Sweep(at, idle)
	return n
}

// Drain stops admission (every subsequent decide is shed with 503), waits up
// to timeout for in-flight decides to finish, and returns the live session
// count at drain time plus whether the in-flight work fully drained — the
// numbers soda-server reports on SIGTERM.
func (s *DecideService) Drain(timeout time.Duration) (sessions int, clean bool) {
	sessions = s.sessions.Drain()
	clean = s.inflight.DrainWait(timeout)
	return sessions, clean
}

// SessionStats exposes the session-table lifecycle counters.
func (s *DecideService) SessionStats() sessiontable.Stats { return s.sessions.Stats() }

// DecideStatus classifies the outcome of one Decide call.
type DecideStatus int

// Decide outcomes. Every rejected status maps onto an HTTP response with a
// Retry-After header; StatusOK carries a decision.
const (
	StatusOK DecideStatus = iota
	// StatusRejectedRate: the client spent its token bucket (HTTP 429).
	StatusRejectedRate
	// StatusRejectedLoad: the in-flight bound is saturated (HTTP 503).
	StatusRejectedLoad
	// StatusRejectedCapacity: the session table is full (HTTP 503).
	StatusRejectedCapacity
	// StatusRejectedDraining: the server is draining (HTTP 503).
	StatusRejectedDraining
)

// DecideRequest is one decide call in validated, typed form — the in-process
// surface the load generator drives without HTTP parsing or encoding.
type DecideRequest struct {
	// Session names the session; Client is the rate-limit key (empty falls
	// back to Session).
	Session string
	Client  string
	// Buffer and Throughput are the reported player state.
	Buffer     units.Seconds
	Throughput units.Mbps
	// BufferCap overrides the default buffer cap when positive.
	BufferCap units.Seconds
	// Segment overrides the session's segment index when non-negative.
	Segment int
	// Prev overrides the session's previous rung when HavePrev is set.
	Prev     int
	HavePrev bool
}

// DecideResult is the outcome of one Decide call.
type DecideResult struct {
	Status     DecideStatus
	RetryAfter time.Duration // advisory backoff on rejection

	SessionID   int64
	Segment     int
	Rung        int
	BitrateMbps float64
	WaitSeconds float64
}

// Decide runs the full control-plane path for one validated request:
// admission (drain, rate limit), backpressure (in-flight bound), session
// acquire, the per-session decide critical section, then telemetry from the
// call site. The steady-state path performs no allocation (gated by
// BenchmarkSessionTableDecide), which is what lets one host sustain tens of
// thousands of concurrent sessions.
//
// The service clock is read once per stage boundary: on entry, before and
// after the controller's Decide, and on exit; with a flight recorder also
// after the rate limit, the in-flight acquire and the session acquire. The
// recorder gets the stamps as one record once the response is known.
func (s *DecideService) Decide(req *DecideRequest) DecideResult {
	var fr flightrec.Request
	fr.Start = s.clock()
	res := s.admit(req, &fr)
	fr.End = s.clock()
	served := res.Status == StatusOK
	if served {
		s.decideLatency.Observe(float64(fr.End-fr.Start) * 1e-9)
	}
	if s.flight != nil {
		fr.Session, fr.Served = int32(res.SessionID), served
		s.flight.Record(&fr)
	}
	return res
}

// reach marks stage as the last one the request reached and, with a flight
// recorder, stamps its end.
func (s *DecideService) reach(fr *flightrec.Request, stage flightrec.Stage) {
	fr.Stop = stage
	if s.flight != nil {
		fr.Ends[stage] = s.clock()
	}
}

// admit runs admission control and, for an admitted request, the decide
// under an in-flight slot. It stamps fr's stage ends as it goes.
func (s *DecideService) admit(req *DecideRequest, fr *flightrec.Request) DecideResult {
	client := req.Client
	if client == "" {
		client = req.Session
	}
	admitted, retry := s.limiter.Allow(client, fr.Start)
	s.reach(fr, flightrec.StageRateLimit)
	if !admitted {
		s.rejectedRate.Inc()
		return DecideResult{Status: StatusRejectedRate, RetryAfter: time.Duration(retry)}
	}
	acquired := s.inflight.TryAcquire()
	s.reach(fr, flightrec.StageInflight)
	if !acquired {
		s.rejectedLoad.Inc()
		return DecideResult{Status: StatusRejectedLoad, RetryAfter: time.Second}
	}
	res := s.decideAdmitted(req, fr)
	s.inflight.Release()
	return res
}

// decideAdmitted is the post-admission decide path: the caller holds an
// in-flight slot.
func (s *DecideService) decideAdmitted(req *DecideRequest, fr *flightrec.Request) DecideResult {
	entry, err := s.sessions.Acquire(req.Session, fr.Start, s.newSession)
	s.reach(fr, flightrec.StageSession)
	if err != nil {
		if err == sessiontable.ErrDraining {
			s.rejectedDraining.Inc()
			return DecideResult{Status: StatusRejectedDraining, RetryAfter: time.Second}
		}
		s.rejectedCapacity.Inc()
		return DecideResult{Status: StatusRejectedCapacity, RetryAfter: time.Second}
	}
	bufferCap := units.Seconds(defaultBufferCap)
	if req.BufferCap > 0 {
		bufferCap = req.BufferCap
	}

	// Decisions serialise per session under the entry lock, which never
	// covers I/O or channel operations: parameters were validated before
	// admission, and reply encoding plus telemetry recording happen after
	// the unlock. The solver itself is sub-microsecond, so the critical
	// section stays short; distinct sessions proceed in parallel. The
	// arena stage spans taking the lock and setting up the decide.
	entry.Mu.Lock()
	sess := &entry.Value
	if req.Segment >= 0 {
		sess.segment = int32(req.Segment)
	}
	if req.HavePrev {
		sess.prevRung = int32(req.Prev)
	}
	omega := req.Throughput
	ctx := &abr.Context{
		Buffer:         req.Buffer,
		BufferCap:      bufferCap,
		PrevRung:       int(sess.prevRung),
		Ladder:         s.ladder,
		SegmentIndex:   int(sess.segment),
		TotalSegments:  1 << 20, // an open-ended live stream
		LastThroughput: omega,
		Predict:        func(units.Seconds) units.Mbps { return omega },
	}

	before := sess.ctrl.SolveStats()
	fr.Ends[flightrec.StageArena] = s.clock()
	decision := sess.ctrl.Decide(ctx)
	fr.Ends[flightrec.StageDecide] = s.clock()
	fr.Stop = flightrec.StageDecide

	res := DecideResult{SessionID: entry.ID(), Segment: int(sess.segment), Rung: decision.Rung}
	ev := telemetry.DecisionEvent{
		Session:      int32(entry.ID()),
		Segment:      sess.segment,
		Rung:         int16(decision.Rung),
		PrevRung:     int16(sess.prevRung),
		AtSeconds:    units.Seconds(float64(fr.Start) * 1e-9),
		Buffer:       req.Buffer,
		Throughput:   omega,
		SolveSeconds: units.Seconds(float64(fr.Ends[flightrec.StageDecide]-fr.Ends[flightrec.StageArena]) * 1e-9),
		Timed:        true,
	}
	if decision.Rung == abr.NoRung {
		res.WaitSeconds = float64(decision.WaitSeconds)
		ev.WaitSeconds = decision.WaitSeconds
	} else {
		rung := s.ladder.ClampIndex(decision.Rung)
		res.Rung = rung
		res.BitrateMbps = float64(s.ladder.Mbps(rung))
		ev.Rung = int16(rung)
		ev.Bitrate = s.ladder.Mbps(rung)
		sess.prevRung = int32(rung)
		sess.segment++
	}
	if s.watchdog != nil {
		// Detector state lives in the session entry; the entry lock already
		// serialises this session, so Observe races nothing.
		s.watchdog.Observe(&sess.watch, int32(entry.ID()), ev.AtSeconds, req.Buffer,
			ev.Rung, ev.PrevRung)
	}
	d := sess.ctrl.SolveStats().Delta(before)
	entry.Mu.Unlock()
	s.sessions.Release(entry, fr.Ends[flightrec.StageDecide])

	ev.Solves, ev.Nodes = uint32(d.Solves), uint32(d.Nodes)
	ev.SharedHits, ev.TableHits = uint32(d.SharedHits), uint32(d.TableHits)
	s.col.RecordDecision(ev)
	s.col.RecordSolverStats(d)
	return res
}

// newSession is the sessiontable create callback: seat the fresh entry's
// controller in place on the service's policy, with no previous rung. It
// runs under the table's shard lock, so it binds no cost parameters: the
// session's first Decide binds them, once, at the buffer cap the client
// sent, outside that lock — the compiled table's own parameters with tables
// on, which allocates nothing, or private ones with tables off. core.New is
// NewPolicy plus the same Init, so a recreated session decides like a fresh
// one.
func (s *DecideService) newSession(sess *sessiontable.Session[decideSession]) {
	sess.Value.ctrl.Init(s.policy)
	sess.Value.prevRung = int32(abr.NoRung)
}

// decideReply is the JSON response of one /decide call.
type decideReply struct {
	Session     int64   `json:"session"`
	Segment     int     `json:"segment"`
	Rung        int     `json:"rung"`
	BitrateMbps float64 `json:"bitrate_mbps"`
	WaitSeconds float64 `json:"wait_s,omitempty"`
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Bounds on /decide's numeric inputs; a value past one is a 400. Beyond them
// the cost model stops being a model: a throughput near MaxFloat64 makes
// ω̂·Δt overflow to +Inf and the decision flips on NaN costs, a buffer cap of
// hours plans toward an absurd target, and a segment index past 2^31 wraps
// the session's 32-bit counter.
const (
	// maxThroughputMbps is 1 Tb/s, far above any ladder's saturation point.
	maxThroughputMbps = 1e6
	// maxBufferSeconds bounds both buffer= and cap=: ten minutes.
	maxBufferSeconds = 600
	// maxSegment leaves the session's int32 segment counter 2^30 downloads
	// of headroom, so the server's own increment cannot wrap it.
	maxSegment = 1 << 30
)

// ServeHTTP implements the /decide endpoint: validate, then hand the typed
// request to Decide and map its status onto HTTP. session is required;
// buffer (seconds) and throughput (Mb/s) are required finite numbers in
// [0, 600] and [0, 1e6]; the optional cap (seconds) lies in [one segment,
// 600], segment in [0, 2^30] and prev in [-1, ladder size). Anything else
// is a 400; GET is the only method.
func (s *DecideService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	req := DecideRequest{Session: q.Get("session"), Client: q.Get("client"), Segment: -1}
	if req.Session == "" {
		http.Error(w, "missing session parameter", http.StatusBadRequest)
		return
	}
	buffer, err := parseBounded(q.Get("buffer"), maxBufferSeconds)
	if err != nil {
		http.Error(w, "buffer: "+err.Error(), http.StatusBadRequest)
		return
	}
	req.Buffer = units.Seconds(buffer)
	throughput, err := parseBounded(q.Get("throughput"), maxThroughputMbps)
	if err != nil {
		http.Error(w, "throughput: "+err.Error(), http.StatusBadRequest)
		return
	}
	req.Throughput = units.Mbps(throughput)
	if v := q.Get("cap"); v != "" {
		// A cap below one segment leaves no room to download anything: the
		// session would wait forever. sim.Run and sim.NewFleet reject it too.
		bufferCap, err := parseBounded(v, maxBufferSeconds)
		if err != nil || units.Seconds(bufferCap) < s.ladder.SegmentSeconds {
			http.Error(w, fmt.Sprintf("cap must be between one segment (%g s) and %g s",
				float64(s.ladder.SegmentSeconds), float64(maxBufferSeconds)), http.StatusBadRequest)
			return
		}
		req.BufferCap = units.Seconds(bufferCap)
	}
	if v := q.Get("segment"); v != "" {
		seg, err := strconv.Atoi(v)
		if err != nil || seg < 0 || seg > maxSegment {
			http.Error(w, fmt.Sprintf("segment must be an integer in [0, %d]", maxSegment), http.StatusBadRequest)
			return
		}
		req.Segment = seg
	}
	if v := q.Get("prev"); v != "" {
		prev, err := strconv.Atoi(v)
		if err != nil || prev < abr.NoRung || prev >= s.ladder.Len() {
			http.Error(w, "prev out of range", http.StatusBadRequest)
			return
		}
		req.Prev, req.HavePrev = prev, true
	}

	res := s.Decide(&req)
	switch res.Status {
	case StatusOK:
	case StatusRejectedRate:
		w.Header().Set("Retry-After", retryAfterSeconds(res.RetryAfter))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	default: // load shed, capacity, draining
		w.Header().Set("Retry-After", retryAfterSeconds(res.RetryAfter))
		http.Error(w, "service saturated or draining", http.StatusServiceUnavailable)
		return
	}

	reply := decideReply{
		Session:     res.SessionID,
		Segment:     res.Segment,
		Rung:        res.Rung,
		BitrateMbps: res.BitrateMbps,
		WaitSeconds: res.WaitSeconds,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply) // a failed write means the client hung up
}

// parseBounded parses a query number in [0, limit]. NaN and ±Inf describe no
// player state; accepted, they would poison the histogram sums for good and
// break the reply's JSON encoding.
func parseBounded(raw string, limit float64) (float64, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing parameter")
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(v >= 0 && v <= limit) {
		return 0, fmt.Errorf("must be a number in [0, %g]", limit)
	}
	return v, nil
}
