package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestStageString(t *testing.T) {
	want := []string{"ratelimit", "inflight", "session", "arena", "decide", "respond"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

// request builds a request starting at start whose stages up to stop take
// durs back to back, the last duration being the reply tail after stop.
func request(session int32, start int64, stop Stage, served bool, durs ...int64) *Request {
	q := &Request{Start: start, Session: session, Stop: stop, Served: served}
	at := start
	for s := Stage(0); s <= stop; s++ {
		at += durs[s]
		q.Ends[s] = at
	}
	q.End = at + durs[stop+1]
	return q
}

func TestRecorderRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(reg, 16)
	rec.Record(request(7, 1000, StageDecide, true, 10, 20, 30, 40, 250, 50))
	rec.Record(request(8, 2000, StageDecide, true, 10, 20, 30, 40, 500, 50))
	rec.Record(request(7, 900, StageRateLimit, false, 50, 5))
	rec.Record(&Request{Start: 3000, End: 3010, Session: 9, Stop: StageRespond, Served: true}) // no such stop: dropped

	spans := rec.Snapshot()
	if len(spans) != 14 {
		t.Fatalf("snapshot holds %d spans, want 14 (6 per served request, 2 for the rejected one)", len(spans))
	}
	byStage := map[string]int{}
	for i, sp := range spans {
		byStage[sp.Stage.String()]++
		if i > 0 && sp.Stage < spans[i-1].Stage {
			t.Fatalf("snapshot not ordered by stage: %+v after %+v", sp, spans[i-1])
		}
	}
	if byStage["decide"] != 2 || byStage["ratelimit"] != 3 || byStage["respond"] != 3 {
		t.Fatalf("stage counts = %v", byStage)
	}
	// Session 7's served request names it from the session stage on; its
	// rejected request names no session at all.
	only := rec.SessionSpans(7)
	if len(only) != 4 {
		t.Fatalf("session 7 spans = %d, want 4", len(only))
	}
	for _, sp := range only {
		if sp.Session != 7 || sp.Stage < StageSession || !sp.OK {
			t.Fatalf("session filter leaked %+v", sp)
		}
		if sp.Stage == StageDecide && (sp.Start != 1100 || sp.Dur != 250) {
			t.Fatalf("decide span = %+v, want start 1100 dur 250", sp)
		}
	}
	// The rejected ratelimit span kept its OK=false bit and payload.
	var rl *Span
	for i := range spans {
		if spans[i].Stage == StageRateLimit && !spans[i].OK {
			rl = &spans[i]
		}
	}
	if rl == nil || rl.Start != 900 || rl.Dur != 50 || rl.Session != NoSession {
		t.Fatalf("ratelimit span = %+v", rl)
	}
	// The per-stage histograms saw one observation per pipeline-stage span;
	// respond spans have no histogram here.
	snaps := reg.Snapshot()
	var histCount uint64
	for _, s := range snaps {
		if s.Name == "soda_server_stage_latency_seconds" {
			histCount += s.Count
			if s.Labels[0].Value == "respond" {
				t.Error("a respond stage histogram is registered")
			}
		}
	}
	if histCount != 11 {
		t.Fatalf("stage histograms observed %d, want 11", histCount)
	}
}

// TestRequestSize pins the record size the ring sizing in DESIGN.md quotes.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 64 {
		t.Fatalf("Request is %d bytes, want 64", got)
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(nil, 8)
	for i := 0; i < 30; i++ {
		rec.Record(request(int32(i), int64(i*100), StageDecide, true, 1, 1, 1, 1, 1, 1))
	}
	spans := rec.SessionSpans(29)
	if len(spans) != 4 {
		t.Fatalf("newest request's spans after wrap: %d, want 4", len(spans))
	}
	if got := rec.Snapshot(); len(got) != 8*NumStages {
		t.Fatalf("wrapped ring holds %d spans, want %d", len(got), 8*NumStages)
	}
	if len(rec.SessionSpans(21)) != 0 {
		t.Fatal("oldest request survived the wrap")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Record(request(1, 0, StageDecide, true, 1, 1, 1, 1, 1, 1))
	if rec.Snapshot() != nil || rec.SessionSpans(1) != nil || rec.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestRecorderConcurrent hammers the request ring with concurrent writers
// while a reader snapshots continuously. Under -race this proves the ring is
// race-detector-clean; the payload invariant (every stage and the reply tail
// of a request take Session+1 ns) proves no snapshot returns a torn record;
// and every snapshot holds exactly min(written, capacity) requests, so none
// is ever dropped — with a ring smaller than the traffic (wrapping under
// contention) and one larger (never wrapping). The writers cover every stop
// stage, and the expanded spans of the final snapshot hold one span per
// stage each held request reached.
func TestRecorderConcurrent(t *testing.T) {
	const nWriters, each = 8, 500
	for _, size := range []int{64, 4096} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			rec := NewRecorder(nil, size)
			intact := func(q *Request) error {
				step := int64(q.Session) + 1
				at := q.Start
				for s := Stage(0); s <= q.Stop; s++ {
					if q.Ends[s]-at != step {
						return fmt.Errorf("torn request %+v", *q)
					}
					at = q.Ends[s]
				}
				if q.End-at != step || q.Served != (q.Stop == StageDecide) {
					return fmt.Errorf("torn request %+v", *q)
				}
				return nil
			}
			stop := make(chan struct{})
			readerDone := make(chan error, 1)
			go func() {
				for {
					select {
					case <-stop:
						readerDone <- nil
						return
					default:
					}
					first, reqs := rec.ring.SnapshotSeq()
					written := first + uint64(len(reqs))
					if want := min(written, uint64(size)); uint64(len(reqs)) != want {
						readerDone <- fmt.Errorf("snapshot holds %d requests of %d written, want %d",
							len(reqs), written, want)
						return
					}
					for i := range reqs {
						if err := intact(&reqs[i]); err != nil {
							readerDone <- err
							return
						}
					}
					for _, sp := range rec.Snapshot() {
						if sp.Session != NoSession && sp.Stage != StageRespond && sp.Dur != int64(sp.Session)+1 {
							readerDone <- fmt.Errorf("torn span %+v", sp)
							return
						}
					}
				}
			}()
			var writers sync.WaitGroup
			for w := 0; w < nWriters; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < each; i++ {
						s := int32((w*each + i) % 100)
						d := int64(s) + 1
						stop := Stage(i % int(StageRespond))
						rec.Record(request(s, int64(i), stop, stop == StageDecide, d, d, d, d, d, d))
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			if err := <-readerDone; err != nil {
				t.Fatal(err)
			}
			reqs := rec.ring.Snapshot()
			if want := min(nWriters*each, size); len(reqs) != want {
				t.Fatalf("ring holds %d requests, want %d", len(reqs), want)
			}
			var want, held [NumStages]int
			for i := range reqs {
				for s := Stage(0); s <= reqs[i].Stop; s++ {
					want[s]++
				}
				want[StageRespond]++
			}
			for _, sp := range rec.Snapshot() {
				held[sp.Stage]++
			}
			if held != want {
				t.Errorf("spans per stage = %v, want %v", held, want)
			}
			if d := rec.Dropped(); d != 0 {
				t.Fatalf("Dropped() = %d, want 0", d)
			}
		})
	}
}

func TestWatchdogOscillation(t *testing.T) {
	w := NewWatchdog(nil, WatchdogConfig{OscillationWindow: 8, OscillationSwitches: 4})
	var watch SessionWatch
	rungs := []int16{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	prev := int16(0)
	for i, r := range rungs {
		w.Observe(&watch, 1, units.Seconds(i), units.Seconds(10), r, prev)
		prev = r
	}
	if got := w.Count(KindOscillation); got != 1 {
		t.Fatalf("oscillation incidents = %d, want 1 (hysteresis: one per excursion)", got)
	}
	// Settle: long stable run re-arms the detector…
	for i := 0; i < 16; i++ {
		w.Observe(&watch, 1, units.Seconds(20+i), units.Seconds(10), 1, 1)
	}
	// …then a second oscillation burst fires again.
	prev = 1
	for i := 0; i < 12; i++ {
		r := int16(i % 2)
		w.Observe(&watch, 1, units.Seconds(40+i), units.Seconds(10), r, prev)
		prev = r
	}
	if got := w.Count(KindOscillation); got != 2 {
		t.Fatalf("oscillation incidents after re-arm = %d, want 2", got)
	}
}

func TestWatchdogStallAndUnderrun(t *testing.T) {
	w := NewWatchdog(nil, WatchdogConfig{UnderrunHorizon: units.Seconds(4)})
	var watch SessionWatch
	// Startup at buffer 0 must NOT count as a stall or underrun.
	w.Observe(&watch, 2, units.Seconds(0), units.Seconds(0), 0, -1)
	w.Observe(&watch, 2, units.Seconds(1), units.Seconds(0), 0, 0)
	if w.Total() != 0 {
		t.Fatalf("startup flagged %d incidents", w.Total())
	}
	// Fill, then dip below the horizon → one underrun-risk incident.
	w.Observe(&watch, 2, units.Seconds(2), units.Seconds(10), 1, 0)
	w.Observe(&watch, 2, units.Seconds(3), units.Seconds(3), 1, 1)
	w.Observe(&watch, 2, units.Seconds(4), units.Seconds(2), 1, 1) // still in excursion, no second incident
	if got := w.Count(KindUnderrunRisk); got != 1 {
		t.Fatalf("underrun incidents = %d, want 1", got)
	}
	// Hit empty → stall onset, once.
	w.Observe(&watch, 2, units.Seconds(5), units.Seconds(0), 0, 1)
	w.Observe(&watch, 2, units.Seconds(6), units.Seconds(0), 0, 0)
	if got := w.Count(KindStall); got != 1 {
		t.Fatalf("stall incidents = %d, want 1", got)
	}
	// Recover above the horizon, dip again → second underrun excursion.
	w.Observe(&watch, 2, units.Seconds(7), units.Seconds(6), 1, 0)
	w.Observe(&watch, 2, units.Seconds(8), units.Seconds(1), 1, 1)
	if got := w.Count(KindUnderrunRisk); got != 2 {
		t.Fatalf("underrun incidents after recovery = %d, want 2", got)
	}
	if got := w.Total(); got != 3 {
		t.Fatalf("total incidents = %d, want 3", got)
	}
	// The incident log carries labeled, sequenced records.
	incidents := Incidents(w.Log())
	if len(incidents) != 3 {
		t.Fatalf("incident log holds %d, want 3", len(incidents))
	}
	kinds := map[string]int{}
	for i, in := range incidents {
		if in.Session != 2 || in.Seq != uint64(i) {
			t.Fatalf("incident %d: session %d seq %d", i, in.Session, in.Seq)
		}
		kinds[in.Kind.String()]++
	}
	if kinds["underrun_risk"] != 2 || kinds["stall"] != 1 {
		t.Fatalf("incident kinds = %v", kinds)
	}
}

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	var watch SessionWatch
	w.Observe(&watch, 1, units.Seconds(0), units.Seconds(5), 1, 0)
	if w.Total() != 0 || w.Count(KindStall) != 0 || w.Log() != nil {
		t.Fatal("nil watchdog not inert")
	}
	real := NewWatchdog(nil, WatchdogConfig{})
	real.Observe(nil, 1, units.Seconds(0), units.Seconds(5), 1, 0) // nil watch is also a no-op
	if real.Total() != 0 {
		t.Fatal("nil watch observed")
	}
}

func TestWatchdogCountersRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := NewWatchdog(reg, WatchdogConfig{UnderrunHorizon: units.Seconds(4)})
	var watch SessionWatch
	w.Observe(&watch, 1, units.Seconds(0), units.Seconds(10), 0, -1)
	w.Observe(&watch, 1, units.Seconds(1), units.Seconds(1), 0, 0)
	var total float64
	for _, s := range reg.Snapshot() {
		if s.Name == "soda_qoe_incidents_total" {
			total += s.Value
		}
	}
	if total != 1 {
		t.Fatalf("registry incident counters sum = %g, want 1", total)
	}
}

// TestIncidentLogWrap checks the incident log keeps the newest incidents
// once it wraps and that Incidents numbers them by their append order.
func TestIncidentLogWrap(t *testing.T) {
	l := telemetry.NewRing[Incident](4)
	for i := 0; i < 10; i++ {
		l.Append(Incident{Session: int32(i), Kind: KindStall})
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d", l.Total())
	}
	snap := Incidents(l)
	if len(snap) != 4 || snap[0].Session != 6 || snap[3].Session != 9 {
		t.Fatalf("wrapped snapshot = %+v", snap)
	}
	for i, in := range snap {
		if in.Seq != uint64(6+i) {
			t.Fatalf("seq[%d] = %d, want %d", i, in.Seq, 6+i)
		}
	}
}

// TestWireFormat pins the JSONL bytes of a span and an incident: field
// names, field order, and the stage/kind labels rendered by MarshalText.
// The soda-server endpoint smoke test checks the live endpoints against the
// same shapes.
func TestWireFormat(t *testing.T) {
	const (
		spanJSON     = `{"start_ns":1000,"dur_ns":250,"session":7,"ok":true,"stage":"decide"}`
		incidentJSON = `{"seq":2,"session":3,"kind":"stall","at_s":12.5,"buffer_s":0,"rung":1}`
	)
	sp := Span{Start: 1000, Dur: 250, Session: 7, OK: true, Stage: StageDecide}
	got, err := json.Marshal(sp)
	if err != nil || string(got) != spanJSON {
		t.Fatalf("span encodes as %s (err %v), want %s", got, err, spanJSON)
	}
	var back Span
	if err := json.Unmarshal([]byte(spanJSON), &back); err != nil || back != sp {
		t.Fatalf("span decodes as %+v (err %v), want %+v", back, err, sp)
	}

	// Seq is derived from the log's sequence numbers: the third incident
	// appended to a two-slot log is the second held, with Seq 2.
	log := telemetry.NewRing[Incident](2)
	for i := 0; i < 3; i++ {
		log.Append(Incident{Session: 3, Kind: KindStall, At: units.Seconds(12.5), Rung: 1})
	}
	incidents := Incidents(log)
	if len(incidents) != 2 || incidents[0].Seq != 1 {
		t.Fatalf("incidents = %+v, want seqs 1 and 2", incidents)
	}
	got, err = json.Marshal(incidents[1])
	if err != nil || string(got) != incidentJSON {
		t.Fatalf("incident encodes as %s (err %v), want %s", got, err, incidentJSON)
	}
	var in Incident
	if err := json.Unmarshal([]byte(incidentJSON), &in); err != nil || in != incidents[1] {
		t.Fatalf("incident decodes as %+v (err %v), want %+v", in, err, incidents[1])
	}

	// Labels outside the known set are rejected on decode.
	if err := json.Unmarshal([]byte(`{"stage":"nope"}`), &back); err == nil {
		t.Error("unknown stage label decoded")
	}
	if err := json.Unmarshal([]byte(`{"kind":"nope"}`), &in); err == nil {
		t.Error("unknown incident kind decoded")
	}
}

func TestPerThousandSessions(t *testing.T) {
	if got := PerThousandSessions(5, 1000); got != 5 {
		t.Fatalf("5/1000 = %g", got)
	}
	if got := PerThousandSessions(1, 0); got != 0 {
		t.Fatalf("div-by-zero guard = %g", got)
	}
}

func TestSpansHandler(t *testing.T) {
	rec := NewRecorder(nil, 16)
	rec.Record(request(1, 90, StageDecide, true, 1, 1, 1, 5, 10, 2))
	rec.Record(request(2, 200, StageDecide, true, 1, 1, 1, 5, 20, 2))

	h := SpansHandler(rec)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/spans", nil))
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if n := countLines(rw.Body.String()); n != 2*NumStages {
		t.Fatalf("unfiltered spans = %d lines, want %d", n, 2*NumStages)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/spans?session=1&stage=decide", nil))
	sc := bufio.NewScanner(rw.Body)
	n := 0
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line does not parse: %v", err)
		}
		if sp.Session != 1 || sp.Stage != StageDecide {
			t.Fatalf("filter leaked %+v", sp)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("filtered spans = %d, want 1", n)
	}

	for _, bad := range []string{"?limit=-1", "?limit=x", "?session=-2", "?session=x", "?stage=nope"} {
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/spans"+bad, nil))
		if rw.Code != 400 {
			t.Errorf("%s returned %d, want 400", bad, rw.Code)
		}
	}
}

func TestIncidentsHandler(t *testing.T) {
	w := NewWatchdog(nil, WatchdogConfig{UnderrunHorizon: units.Seconds(4)})
	var w1, w2 SessionWatch
	w.Observe(&w1, 1, units.Seconds(0), units.Seconds(10), 0, -1)
	w.Observe(&w1, 1, units.Seconds(1), units.Seconds(1), 0, 0) // underrun on session 1
	w.Observe(&w2, 2, units.Seconds(0), units.Seconds(10), 0, -1)
	w.Observe(&w2, 2, units.Seconds(1), units.Seconds(0.5), 0, 0) // underrun on session 2

	h := IncidentsHandler(w.Log())
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/incidents", nil))
	if n := countLines(rw.Body.String()); n != 2 {
		t.Fatalf("incidents = %d lines, want 2", n)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/incidents?session=2&limit=5", nil))
	sc := bufio.NewScanner(rw.Body)
	for sc.Scan() {
		var in Incident
		if err := json.Unmarshal(sc.Bytes(), &in); err != nil {
			t.Fatalf("incident line does not parse: %v", err)
		}
		if in.Session != 2 || in.Kind != KindUnderrunRisk {
			t.Fatalf("filter leaked %+v", in)
		}
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/incidents?limit=-9", nil))
	if rw.Code != 400 {
		t.Fatalf("bad limit returned %d", rw.Code)
	}
	// A nil log serves an empty stream, not a panic.
	rw = httptest.NewRecorder()
	IncidentsHandler(nil).ServeHTTP(rw, httptest.NewRequest("GET", "/debug/incidents", nil))
	if rw.Code != 200 || countLines(rw.Body.String()) != 0 {
		t.Fatalf("nil log: code %d, %d lines", rw.Code, countLines(rw.Body.String()))
	}
}

func TestSessionTimelineHandler(t *testing.T) {
	ring := telemetry.NewRing[telemetry.DecisionEvent](64)
	for i := 0; i < 6; i++ {
		ring.Append(telemetry.DecisionEvent{
			Session: int32(i % 2), Segment: int32(i), Rung: int16(i % 3),
			Buffer: units.Seconds(5 + i), AtSeconds: units.Seconds(i * 4),
		})
	}
	rec := NewRecorder(nil, 16)
	rec.Record(request(1, 1000, StageDecide, true, 1, 1, 1, 1, 10, 1))
	w := NewWatchdog(nil, WatchdogConfig{})

	h := SessionTimelineHandler(ring, rec, w.Log())
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/sessions?id=1", nil))
	if rw.Code != 200 {
		t.Fatalf("code = %d", rw.Code)
	}
	var tl SessionTimeline
	if err := json.Unmarshal(rw.Body.Bytes(), &tl); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	if tl.Session != 1 || len(tl.Decisions) != 3 || len(tl.Spans) != 4 {
		t.Fatalf("timeline = session %d, %d decisions, %d spans",
			tl.Session, len(tl.Decisions), len(tl.Spans))
	}
	for _, ev := range tl.Decisions {
		if ev.Session != 1 {
			t.Fatalf("timeline leaked session %d", ev.Session)
		}
	}

	// format=trace renders Chrome trace JSON.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/sessions?id=1&format=trace", nil))
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	for _, bad := range []string{"", "?id=-1", "?id=x", "?id=1&format=xml"} {
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/sessions"+bad, nil))
		if rw.Code != 400 {
			t.Errorf("%q returned %d, want 400", bad, rw.Code)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []telemetry.DecisionEvent{
		{Session: 3, Segment: 0, Rung: 2, PrevRung: -1, Buffer: units.Seconds(0), Throughput: units.Mbps(8), Bitrate: units.Mbps(4), AtSeconds: units.Seconds(0)},
		{Session: 3, Segment: 1, Rung: -1, PrevRung: 2, Buffer: units.Seconds(12), WaitSeconds: units.Seconds(1.5), AtSeconds: units.Seconds(4)},
		{Session: 4, Segment: 0, Rung: 1, PrevRung: -1, Buffer: units.Seconds(0), Throughput: units.Mbps(3), Bitrate: units.Mbps(1.5), AtSeconds: units.Seconds(0.5)},
	}
	spans := []Span{
		{Start: 1_000_000, Dur: 5_000, Session: 3, Stage: StageDecide, OK: true},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var phases = map[string]int{}
	var sawWait, sawSpan, sawMeta bool
	for _, ev := range out.TraceEvents {
		phases[ev.Ph]++
		switch {
		case ev.Name == "wait" && ev.Ph == "X":
			sawWait = true
			if ev.Dur != 1.5e6 {
				t.Errorf("wait dur = %g µs, want 1.5e6", ev.Dur)
			}
		case ev.Name == "decide" && ev.Ph == "X":
			sawSpan = true
			if ev.Ts != 1000 || ev.Dur != 5 {
				t.Errorf("span ts/dur = %g/%g µs, want 1000/5", ev.Ts, ev.Dur)
			}
		case ev.Name == "thread_name" && ev.Ph == "M":
			sawMeta = true
		}
	}
	// Every trace-event phase used must be one Perfetto understands.
	for ph := range phases {
		switch ph {
		case "X", "i", "C", "M":
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	if !sawWait || !sawSpan || !sawMeta {
		t.Fatalf("missing events: wait=%v span=%v meta=%v", sawWait, sawSpan, sawMeta)
	}
}

func countLines(s string) int {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	return len(strings.Split(s, "\n"))
}
