// Package flightrec is the serving pipeline's flight recorder: ring-buffered
// stage-latency spans, an online QoE-consistency watchdog over the decision
// stream, and the timeline/trace exports built on both plus the telemetry
// decision ring.
//
// The package follows the same two contracts as internal/telemetry:
//
//   - Purity: nothing here is visible to a controller. Harnesses (httpseg,
//     sim, sim.Fleet, loadgen) record spans and feed the watchdog from the
//     call site after Decide returns, so `abrtest.FlightRecConformance` can
//     pin decisions bit-identical with and without the recorder attached.
//   - Zero allocation on the hot path: recording a span is one locked copy
//     into a pre-allocated per-stage telemetry.Ring, and the watchdog's
//     detectors are integer state machines embedded in caller-owned memory
//     (`SessionWatch` lives in soda-server's session-table entry and in the
//     fleet's arena slab). `BenchmarkFlightRecOverhead` gates the end-to-end
//     cost at ≤5% ns/decision, and the recording functions are
//     `//soda:noalloc`.
//
// Spans, incidents and decisions all live in the same overwrite-oldest
// telemetry.Ring, so a snapshot holds exactly the newest min(written,
// capacity) records of each ring and no record is ever dropped.
//
// Like telemetry, the JSONL/trace exports speak raw float64 — the package
// is a sanctioned laundering site:
//
//soda:wire-boundary
package flightrec

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Stage names one segment of the serving pipeline a span can cover. The
// order is admission order; Respond brackets the whole decide call.
type Stage uint8

const (
	// StageRateLimit is the per-client token-bucket admission check.
	StageRateLimit Stage = iota
	// StageInflight is the in-flight semaphore acquire.
	StageInflight
	// StageSession is the session-table acquire (hash, shard lock, refcount).
	StageSession
	// StageArena is taking the session entry's lock, which serialises the
	// session's decides. Its "arena" label is part of the /metrics and span
	// wire formats.
	StageArena
	// StageDecide is the controller Decide call — table lookup, shared-cache
	// hit, or solver fallback, whichever the decision took.
	StageDecide
	// StageRespond is the whole serving call, admission through reply.
	StageRespond

	// NumStages sizes per-stage arrays.
	NumStages = int(StageRespond) + 1
)

// stageNames are the label values of soda_server_stage_latency_seconds and
// the "stage" field of the JSONL/trace exports.
var stageNames = [NumStages]string{
	"ratelimit", "inflight", "session", "arena", "decide", "respond",
}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalText renders the stage as its exposition label, the "stage" field
// of the JSONL/trace exports.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses an exposition label back into the stage.
func (s *Stage) UnmarshalText(text []byte) error {
	for i, name := range stageNames {
		if string(text) == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("unknown stage %q (want one of ratelimit, inflight, session, arena, decide, respond)", text)
}

// Span is one recorded pipeline stage: where, when (nanoseconds on the
// recorder's monotonic clock), how long, for which session, and whether the
// stage admitted the request (OK false = rejected/shed/stale). The field
// order is the JSONL wire order.
type Span struct {
	Start   int64 `json:"start_ns"`
	Dur     int64 `json:"dur_ns"`
	Session int32 `json:"session"`
	OK      bool  `json:"ok"`
	Stage   Stage `json:"stage"`
}

// DefaultSpansPerStage holds a few seconds of per-stage serving traffic —
// the same "context around the incident" sizing as the decision ring.
const DefaultSpansPerStage = 4096

// Recorder is the stage-latency flight recorder: one span ring and one
// latency histogram per pipeline stage, sharing a monotonic epoch. A nil
// Recorder is a valid no-op, so harnesses wire it unconditionally.
type Recorder struct {
	rings [NumStages]*telemetry.Ring[Span]
	hist  [NumStages]*telemetry.Histogram
	epoch time.Time
}

// NewRecorder builds a recorder with perStage slots per pipeline stage
// (non-positive = DefaultSpansPerStage), registering the per-stage
// soda_server_stage_latency_seconds histograms on reg (nil = a private
// registry; the rings still work).
func NewRecorder(reg *telemetry.Registry, perStage int) *Recorder {
	if perStage <= 0 {
		perStage = DefaultSpansPerStage
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Recorder{epoch: time.Now()}
	for s := 0; s < NumStages; s++ {
		r.rings[s] = telemetry.NewRing[Span](perStage)
		r.hist[s] = reg.Histogram(
			"soda_server_stage_latency_seconds",
			"serving pipeline stage latency, by stage",
			telemetry.USeconds,
			telemetry.Label{Key: "stage", Value: Stage(s).String()},
		)
	}
	return r
}

// Now returns nanoseconds since the recorder's epoch — the clock span
// start/duration stamps are denominated in. Nil-safe (returns 0).
//
//soda:noalloc
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record stores one stage span and feeds the stage's latency histogram.
// Nil-safe no-op, so call sites need no branches.
//
//soda:noalloc
func (r *Recorder) Record(stage Stage, session int32, startNS, durNS int64, ok bool) {
	if r == nil || int(stage) >= NumStages {
		return
	}
	r.rings[stage].Append(Span{Start: startNS, Dur: durNS, Session: session, OK: ok, Stage: stage})
	r.hist[stage].Observe(float64(durNS) * 1e-9)
}

// Dropped returns the number of spans the recorder failed to record. The
// rings never drop a span, so it is always 0; it stays for callers that
// assert a lossless trace.
func (r *Recorder) Dropped() uint64 { return 0 }

// Snapshot copies every stage ring's spans, ordered by stage then oldest
// first. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for s := 0; s < NumStages; s++ {
		out = append(out, r.rings[s].Snapshot()...)
	}
	return out
}

// SessionSpans returns the recorder's spans for one session, every stage,
// oldest first per stage.
func (r *Recorder) SessionSpans(session int32) []Span {
	all := r.Snapshot()
	kept := all[:0]
	for _, sp := range all {
		if sp.Session == session {
			kept = append(kept, sp)
		}
	}
	return kept
}
