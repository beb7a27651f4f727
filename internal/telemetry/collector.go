package telemetry

import (
	"encoding/json"
	"os"
	"sync"

	"repro/internal/units"
)

// SolverStats mirrors core.SolveStats without importing it, keeping the
// telemetry layer free of controller dependencies (harnesses copy the fields
// at the call site). All counters are per-session deltas.
type SolverStats struct {
	Solves         uint64
	Nodes          uint64
	MemoLookups    uint64
	MemoHits       uint64
	SharedLookups  uint64
	SharedHits     uint64
	TableLookups   uint64
	TableHits      uint64
	TableFallbacks uint64
}

// Collector bundles the standard SODA instruments on one registry plus the
// decision trace ring. All methods are safe for concurrent use and nil-safe:
// a nil *Collector records nothing, so harnesses wire it unconditionally.
type Collector struct {
	Registry *Registry
	Ring     *Ring[DecisionEvent]

	// recorders recycles SessionRecorders (and their pending buffers) across
	// sessions: a fleet churns through thousands of short sessions, and
	// per-session buffer allocations are the dominant GC cost of the
	// telemetry layer otherwise.
	recorders sync.Pool

	// Per-decision counters and distributions.
	Decisions   *Counter
	Waits       *Counter
	BufferLevel *Histogram
	Bitrate     *Histogram
	Latency     *Histogram

	// Per-session counters.
	Sessions        *Counter
	Segments        *Counter
	RebufferSeconds *Counter

	// Solver-work counters, flushed from SolveStats deltas.
	Solves         *Counter
	Nodes          *Counter
	MemoLookups    *Counter
	MemoHits       *Counter
	SharedLookups  *Counter
	SharedHits     *Counter
	TableLookups   *Counter
	TableHits      *Counter
	TableFallbacks *Counter
}

// NewCollector registers the standard instruments on reg (a nil reg gets a
// fresh registry) with a trace ring of ringCapacity events.
func NewCollector(reg *Registry, ringCapacity int) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Collector{
		Registry: reg,
		Ring:     NewRing[DecisionEvent](ringCapacity),

		Decisions: reg.Counter("soda_decisions_total", "ABR decisions recorded, including waits", None),
		Waits:     reg.Counter("soda_wait_decisions_total", "decisions that idled instead of downloading", None),
		BufferLevel: reg.Histogram("soda_buffer_level_seconds",
			"playback buffer level at decision time", USeconds),
		Bitrate: reg.Histogram("soda_decided_bitrate_mbps",
			"nominal bitrate of the chosen rung", UMbps),
		Latency: reg.Histogram("soda_decide_latency_seconds",
			"sampled Decide wall-clock latency", USeconds),

		Sessions:        reg.Counter("soda_sessions_total", "completed streaming sessions", None),
		Segments:        reg.Counter("soda_segments_total", "segments downloaded", None),
		RebufferSeconds: reg.Counter("soda_rebuffer_seconds_total", "stall time charged across sessions", USeconds),

		Solves:        reg.Counter("soda_solver_solves_total", "planning problems solved", None),
		Nodes:         reg.Counter("soda_solver_nodes_total", "branch-and-bound nodes expanded", None),
		MemoLookups:   reg.Counter("soda_solver_memo_lookups_total", "decide-level memo lookups", None),
		MemoHits:      reg.Counter("soda_solver_memo_hits_total", "decide-level memo hits", None),
		SharedLookups: reg.Counter("soda_shared_cache_lookups_total", "fleet solve-cache lookups", None),
		SharedHits:    reg.Counter("soda_shared_cache_hits_total", "fleet solve-cache hits", None),

		TableLookups:   reg.Counter("soda_decision_table_lookups_total", "compiled decision-table lookups", None),
		TableHits:      reg.Counter("soda_decision_table_hits_total", "compiled decision-table hits", None),
		TableFallbacks: reg.Counter("soda_decision_table_fallbacks_total", "decision-table lookups outside the domain that fell back to the solver", None),
	}
}

// RecordDecision records one event immediately: ring append, counters and
// histograms, all under the event's own cost (~a ring lock plus a few atomic
// updates). Harnesses with a per-decision hot loop should prefer a
// SessionRecorder, which batches this work. The caller sets ev.Session.
func (c *Collector) RecordDecision(ev DecisionEvent) {
	if c == nil {
		return
	}
	c.Ring.Append(ev)
	c.Decisions.Inc()
	c.BufferLevel.Observe(float64(ev.Buffer))
	if ev.Rung < 0 {
		c.Waits.Inc()
	} else {
		c.Bitrate.Observe(float64(ev.Bitrate))
	}
	if ev.Timed {
		c.Latency.Observe(float64(ev.SolveSeconds))
	}
}

// RecordSolverStats folds a per-session solver-work delta into the counters.
func (c *Collector) RecordSolverStats(s SolverStats) {
	if c == nil {
		return
	}
	addCounter(c.Solves, s.Solves)
	addCounter(c.Nodes, s.Nodes)
	addCounter(c.MemoLookups, s.MemoLookups)
	addCounter(c.MemoHits, s.MemoHits)
	addCounter(c.SharedLookups, s.SharedLookups)
	addCounter(c.SharedHits, s.SharedHits)
	addCounter(c.TableLookups, s.TableLookups)
	addCounter(c.TableHits, s.TableHits)
	addCounter(c.TableFallbacks, s.TableFallbacks)
}

// RecordSession records one completed session's aggregates.
func (c *Collector) RecordSession(segments int, rebuffer units.Seconds) {
	if c == nil {
		return
	}
	c.Sessions.Inc()
	c.Segments.Add(float64(segments))
	c.RebufferSeconds.Add(float64(rebuffer))
}

func addCounter(c *Counter, v uint64) {
	if v > 0 {
		c.Add(float64(v))
	}
}

// Snapshot is the -telemetry flag's file schema: every metric series plus
// the held decision trace.
type Snapshot struct {
	Metrics   []MetricSnapshot `json:"metrics"`
	Decisions []DecisionEvent  `json:"decisions"`
}

// Snapshot captures the collector state.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{Metrics: c.Registry.Snapshot(), Decisions: c.Ring.Snapshot()}
}

// WriteSnapshotFile writes the snapshot as indented JSON to path.
func (c *Collector) WriteSnapshotFile(path string) error {
	data, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// latencySampleEvery is the Decide-latency sampling stride of session
// recorders: timing every decision would put two clock reads (~70 ns each on
// a typical VM) on a ~1 µs hot path and blow the ≤5% telemetry overhead
// budget on its own, so one decision in 64 is timed — still hundreds of
// samples per simulated dataset. Must be a power of two.
const latencySampleEvery = 64

// recorderBatch is how many events a SessionRecorder buffers between
// flushes; the ring lock and counter CAS traffic amortise over a batch.
const recorderBatch = 256

// SessionRecorder batches one session's decision telemetry: events buffer
// locally and flush to the shared ring, counters and histograms every
// recorderBatch decisions and at Finish. It is single-goroutine state (one
// per session, used by that session's worker only) and nil-safe, so the
// simulator calls it unconditionally.
type SessionRecorder struct {
	c       *Collector
	session int32
	pending []DecisionEvent
	seen    uint64 // decisions recorded, for latency sampling
}

// StartSession returns a recorder labelling events with the session id, or
// nil when the collector is nil. Recorders are pooled: Finish returns them,
// so a recorder must not be used after Finish.
func (c *Collector) StartSession(session int) *SessionRecorder {
	if c == nil {
		return nil
	}
	if r, ok := c.recorders.Get().(*SessionRecorder); ok {
		r.session = int32(session)
		return r
	}
	return &SessionRecorder{
		c:       c,
		session: int32(session),
		pending: make([]DecisionEvent, 0, recorderBatch),
	}
}

// SampleLatency reports whether the caller should time the next Decide call
// (one in latencySampleEvery). Nil-safe.
func (r *SessionRecorder) SampleLatency() bool {
	return r != nil && r.seen&(latencySampleEvery-1) == 0
}

// RecordDecision buffers one event. The caller fills everything but Session.
// The event is copied; taking a pointer just keeps a ~100-byte struct off
// the argument path of every decision. Per-decision hot loops should prefer
// the Start/Commit pair, which fills the buffer slot in place and saves this
// copy.
func (r *SessionRecorder) RecordDecision(ev *DecisionEvent) {
	if r == nil {
		return
	}
	ev.Session = r.session
	r.pending = append(r.pending, *ev)
	r.Commit()
}

// Start claims the next buffered event slot, cleared and labelled with the
// session, for the caller to fill in place — the allocation- and copy-free
// variant of RecordDecision. Every Start must be paired with exactly one
// Commit before the next Start (or Finish). Returns nil on a nil recorder;
// callers on the hot path already guard.
//
//soda:noalloc
func (r *SessionRecorder) Start() *DecisionEvent {
	if r == nil {
		return nil
	}
	n := len(r.pending)
	r.pending = r.pending[:n+1]
	p := &r.pending[n]
	*p = DecisionEvent{Session: r.session}
	return p
}

// Commit records the event claimed by the matching Start, flushing a full
// batch.
//
//soda:noalloc
func (r *SessionRecorder) Commit() {
	if r == nil {
		return
	}
	r.seen++
	if len(r.pending) == cap(r.pending) {
		r.flush()
	}
}

// flush folds the pending batch into the shared instruments: the ring, the
// decision counters and each event's histogram bucket. Histogram sums
// accumulate locally and are added once per batch.
func (r *SessionRecorder) flush() {
	if len(r.pending) == 0 {
		return
	}
	c := r.c
	var waits, timed uint64
	var bufferSum, bitrateSum, latencySum float64
	for i := range r.pending {
		ev := &r.pending[i]
		c.BufferLevel.count(float64(ev.Buffer))
		bufferSum += float64(ev.Buffer)
		if ev.Rung < 0 {
			waits++
		} else {
			c.Bitrate.count(float64(ev.Bitrate))
			bitrateSum += float64(ev.Bitrate)
		}
		if ev.Timed {
			timed++
			c.Latency.count(float64(ev.SolveSeconds))
			latencySum += float64(ev.SolveSeconds)
		}
	}
	c.BufferLevel.sum.Add(bufferSum)
	if waits < uint64(len(r.pending)) {
		c.Bitrate.sum.Add(bitrateSum)
	}
	if timed > 0 {
		c.Latency.sum.Add(latencySum)
	}
	addCounter(c.Decisions, uint64(len(r.pending)))
	addCounter(c.Waits, waits)
	c.Ring.AppendBatch(r.pending)
	r.pending = r.pending[:0]
}

// Finish flushes buffered events, records the session's solver-work totals
// and aggregates, and recycles the recorder. Call exactly once when the
// session completes; the recorder must not be used afterwards.
func (r *SessionRecorder) Finish(stats SolverStats, segments int, rebuffer units.Seconds) {
	if r == nil {
		return
	}
	r.flush()
	r.c.RecordSolverStats(stats)
	r.c.RecordSession(segments, rebuffer)
	// flush left pending empty; reset the sampling phase so every session
	// times its first decision.
	r.seen = 0
	r.c.recorders.Put(r)
}
