// Package flightrec is the serving pipeline's flight recorder: a ring of
// per-request stage timings read back as stage-latency spans, an online
// QoE-consistency watchdog over the decision stream, and the timeline/trace
// exports built on both plus the telemetry decision ring.
//
// The package follows the same two contracts as internal/telemetry:
//
//   - Purity: nothing here is visible to a controller. Harnesses record
//     requests (httpseg) and feed the watchdog (httpseg, sim, sim.Fleet,
//     loadgen) from the call site after Decide returns, so
//     `abrtest.FlightRecConformance` can pin decisions bit-identical with
//     and without the watchdog attached, and the serving benchmark's replay
//     check does the same for served decisions with the recorder attached.
//   - Zero allocation on the hot path: recording a request is one locked
//     64-byte copy into a pre-allocated telemetry.Ring plus one histogram
//     update per pipeline stage it reached, and the watchdog's detectors are
//     integer state machines embedded in caller-owned memory (`SessionWatch`
//     lives in soda-server's session-table entry and in a fleet worker's
//     watch slice). `BenchmarkFlightRecOverhead` gates the watchdog's end-to-end
//     cost at ≤5% ns/decision, and the recording functions are
//     `//soda:noalloc`.
//
// The recorder keeps no clock. The harness stamps each request's stage
// boundaries on its own clock, so spans share the origin of its other
// timestamps: soda-server's span starts and decision at_s stamps are both
// nanoseconds since the decide service started, on the monotonic clock.
//
// Requests, incidents and decisions all live in the same overwrite-oldest
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

// stageNames are the "stage" field of the JSONL/trace exports and, respond
// aside, the label values of soda_server_stage_latency_seconds.
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
// serving harness's clock, the same clock as a decision's at_s), how long,
// for which session, and whether the stage admitted the request (OK false =
// rejected/shed/stale). The field order is the JSONL wire order. Spans are
// not stored: the recorder keeps one Request per request and expands it into
// its spans when read.
type Span struct {
	Start   int64 `json:"start_ns"`
	Dur     int64 `json:"dur_ns"`
	Session int32 `json:"session"`
	OK      bool  `json:"ok"`
	Stage   Stage `json:"stage"`
}

// NoSession is the session of a span no session owns: the ratelimit and
// inflight stages of every request, and every stage of a request that was
// not served.
const NoSession = int32(-1)

// Request is one serving request as the recorder keeps it: the stamps of its
// stage boundaries, in nanoseconds on the harness's clock, and how it ended.
// Pipeline stage s (ratelimit through decide) spans from the previous
// stage's end — Start for ratelimit — to Ends[s]; the respond span brackets
// the whole request, Start to End. Each stage thus starts exactly where the
// previous one ended.
//
// A request holds the stages up to Stop, the stage it stopped at: decide
// for a served request, the rejecting stage otherwise. Every stage before
// Stop admitted it; Stop and respond carry Served as their OK bit. Session
// is a served request's session, which its session, arena, decide and
// respond spans name; its ratelimit and inflight spans, and every span of a
// rejected request, name NoSession. A Request is 64 bytes.
type Request struct {
	Start   int64
	Ends    [StageRespond]int64
	End     int64
	Session int32
	Stop    Stage
	Served  bool
}

// span expands stage s of the request into its Span; s must be at most Stop
// or StageRespond.
func (q *Request) span(s Stage) Span {
	if s == StageRespond {
		return Span{Start: q.Start, Dur: q.End - q.Start, Session: q.session(s), OK: q.Served, Stage: s}
	}
	start := q.Start
	if s > 0 {
		start = q.Ends[s-1]
	}
	return Span{Start: start, Dur: q.Ends[s] - start, Session: q.session(s), OK: s < q.Stop || q.Served, Stage: s}
}

// session is the session stage s's span names.
func (q *Request) session(s Stage) int32 {
	if !q.Served || s < StageSession {
		return NoSession
	}
	return q.Session
}

// DefaultSpansPerStage is the default request count of the recorder's ring:
// a few seconds of serving traffic, the same "context around the incident"
// sizing as the decision ring. A served request holds one span per stage, so
// a ring of served requests holds this many spans of each stage.
const DefaultSpansPerStage = 4096

// Recorder is the stage-latency flight recorder: one ring of per-request
// records and one latency histogram per pipeline stage, ratelimit through
// decide. Respond has spans but no histogram here: a served request's whole
// latency is the harness's own figure (soda-server's
// soda_server_decide_latency_seconds), observed once. It keeps no clock:
// the harness stamps requests on its own, so spans share the origin of the
// harness's other timestamps. A nil Recorder is a valid no-op, so harnesses
// wire it unconditionally.
type Recorder struct {
	ring *telemetry.Ring[Request]
	hist [StageRespond]*telemetry.Histogram
}

// NewRecorder builds a recorder whose ring holds the last requests requests
// (non-positive = DefaultSpansPerStage), registering the five pipeline
// stages' soda_server_stage_latency_seconds histograms on reg (nil = a
// private registry; the ring still works).
func NewRecorder(reg *telemetry.Registry, requests int) *Recorder {
	if requests <= 0 {
		requests = DefaultSpansPerStage
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Recorder{ring: telemetry.NewRing[Request](requests)}
	for s := range r.hist {
		r.hist[s] = reg.Histogram(
			"soda_server_stage_latency_seconds",
			"serving pipeline stage latency, by stage",
			telemetry.USeconds,
			telemetry.Label{Key: "stage", Value: Stage(s).String()},
		)
	}
	return r
}

// Record stores one finished request and feeds each pipeline stage it
// reached to that stage's latency histogram. A Stop past StageDecide records
// nothing. Nil-safe no-op.
//
//soda:noalloc
func (r *Recorder) Record(q *Request) {
	if r == nil || q.Stop >= StageRespond {
		return
	}
	r.ring.Append(*q)
	prev := q.Start
	for s := Stage(0); s <= q.Stop; s++ {
		r.hist[s].Observe(float64(q.Ends[s]-prev) * 1e-9)
		prev = q.Ends[s]
	}
}

// Dropped returns the number of spans the recorder failed to record. The
// ring never drops a request, so it is always 0; it stays for callers that
// assert a lossless trace.
func (r *Recorder) Dropped() uint64 { return 0 }

// Snapshot expands the held requests into their spans, ordered by stage then
// oldest first. Nil-safe (returns nil).
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	reqs := r.ring.Snapshot()
	n := 0
	for i := range reqs {
		n += int(reqs[i].Stop) + 2 // its pipeline stages plus respond
	}
	out := make([]Span, 0, n)
	for s := Stage(0); int(s) < NumStages; s++ {
		for i := range reqs {
			if s <= reqs[i].Stop || s == StageRespond {
				out = append(out, reqs[i].span(s))
			}
		}
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
