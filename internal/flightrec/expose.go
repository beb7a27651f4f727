package flightrec

// HTTP surface and trace export: /debug/spans, /debug/incidents,
// /debug/sessions, and the Chrome trace-event (Perfetto-loadable) writer.
// All of it is cold-path snapshot-and-encode over the rings' snapshots.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// SpansHandler serves the recorder's spans as JSONL, one span per line,
// ordered by stage then oldest first. Filters: ?limit= (newest N
// after filtering), ?session=, ?stage=<name>.
func SpansHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, ok := telemetry.ParseQuery(w, r)
		if !ok {
			return
		}
		var stage Stage
		name := r.URL.Query().Get("stage")
		if name != "" {
			if err := stage.UnmarshalText([]byte(name)); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// A failed write means the client hung up.
		_ = telemetry.WriteJSONL(w, rec.Snapshot(), q.Limit, func(sp *Span) bool {
			return q.Keeps(sp.Session) && (name == "" || sp.Stage == stage)
		})
	})
}

// IncidentsHandler serves the watchdog's incident log as JSONL, oldest
// first. Filters: ?limit= (newest N), ?session=.
func IncidentsHandler(log *telemetry.Ring[Incident]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, ok := telemetry.ParseQuery(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = telemetry.WriteJSONL(w, Incidents(log), q.Limit, func(in *Incident) bool { return q.Keeps(in.Session) })
	})
}

// SessionTimeline is the /debug/sessions payload: one session's decision
// trajectory reconstructed from the telemetry ring, its pipeline spans, and
// its incidents.
type SessionTimeline struct {
	Session   int32                     `json:"session"`
	Decisions []telemetry.DecisionEvent `json:"decisions"`
	Spans     []Span                    `json:"spans,omitempty"`
	Incidents []Incident                `json:"incidents,omitempty"`
}

// BuildTimeline reconstructs one session's timeline. ring is required;
// rec and log may be nil.
func BuildTimeline(ring *telemetry.Ring[telemetry.DecisionEvent], rec *Recorder, log *telemetry.Ring[Incident], session int32) SessionTimeline {
	tl := SessionTimeline{Session: session, Decisions: []telemetry.DecisionEvent{}}
	if ring != nil {
		for _, ev := range ring.Snapshot() {
			if ev.Session == session {
				tl.Decisions = append(tl.Decisions, ev)
			}
		}
	}
	if rec != nil {
		tl.Spans = rec.SessionSpans(session)
	}
	for _, in := range Incidents(log) {
		if in.Session == session {
			tl.Incidents = append(tl.Incidents, in)
		}
	}
	return tl
}

// SessionTimelineHandler serves /debug/sessions?id=N: the session's
// reconstructed timeline as JSON, or as Chrome trace-event JSON with
// ?format=trace. rec and log may be nil (decisions-only timelines).
func SessionTimelineHandler(ring *telemetry.Ring[telemetry.DecisionEvent], rec *Recorder, log *telemetry.Ring[Incident]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idStr := r.URL.Query().Get("id")
		if idStr == "" {
			http.Error(w, "missing required ?id=<session>", http.StatusBadRequest)
			return
		}
		id, err := strconv.ParseInt(idStr, 10, 32)
		if err != nil || id < 0 {
			http.Error(w, "id must be a non-negative int32", http.StatusBadRequest)
			return
		}
		tl := BuildTimeline(ring, rec, log, int32(id))
		switch r.URL.Query().Get("format") {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(tl)
		case "trace":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteChromeTrace(w, tl.Decisions, tl.Spans)
		default:
			http.Error(w, "format must be json or trace", http.StatusBadRequest)
		}
	})
}

// traceEvent is one Chrome trace-event record; see the Trace Event Format
// spec (Perfetto and chrome://tracing both load it).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the trace format.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders decision events and pipeline spans as Chrome
// trace-event JSON: each session is a thread (tid), decision events become
// per-session buffer/rung counter tracks plus instants (rung picks) and
// duration slices (waits), and spans become duration slices on their
// session's track. Decision timestamps come from DecisionEvent.AtSeconds
// and span timestamps from the harness's request stamps; soda-server takes
// both from its one service clock, so a session's rung instants and stage
// spans share an origin.
func WriteChromeTrace(w io.Writer, events []telemetry.DecisionEvent, spans []Span) error {
	out := chromeTrace{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	sessions := map[int64]bool{}
	for _, ev := range events {
		tid := int64(ev.Session)
		sessions[tid] = true
		ts := float64(ev.AtSeconds) * 1e6
		out.TraceEvents = append(out.TraceEvents,
			traceEvent{
				Name: fmt.Sprintf("buffer/session %d", ev.Session), Ph: "C",
				Ts: ts, Pid: 1, Tid: tid,
				Args: map[string]any{"buffer_s": float64(ev.Buffer)},
			},
			traceEvent{
				Name: fmt.Sprintf("rung/session %d", ev.Session), Ph: "C",
				Ts: ts, Pid: 1, Tid: tid,
				Args: map[string]any{"rung": int(ev.Rung)},
			})
		if ev.Rung < 0 {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "wait", Ph: "X", Ts: ts,
				Dur: float64(ev.WaitSeconds) * 1e6, Pid: 1, Tid: tid,
				Args: map[string]any{"buffer_s": float64(ev.Buffer)},
			})
		} else {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: fmt.Sprintf("rung %d", ev.Rung), Ph: "i", Ts: ts,
				Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{
					"throughput_mbps": float64(ev.Throughput),
					"bitrate_mbps":    float64(ev.Bitrate),
				},
			})
		}
	}
	for _, sp := range spans {
		tid := int64(sp.Session)
		sessions[tid] = true
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: sp.Stage.String(), Ph: "X",
			Ts:  float64(sp.Start) * 1e-3,
			Dur: float64(sp.Dur) * 1e-3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"ok": sp.OK},
		})
	}
	// Thread-name metadata labels each session track.
	tids := make([]int64, 0, len(sessions))
	for tid := range sessions {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("session %d", tid)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile renders WriteChromeTrace to a file — the backing of
// the soda-server and soda-sim -trace-export flags. The file loads directly
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTraceFile(path string, events []telemetry.DecisionEvent, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, events, spans); err != nil {
		_ = f.Close() // best effort; the write error is the one to report
		return err
	}
	return f.Close()
}
