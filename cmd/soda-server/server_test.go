package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/telemetry"
	"repro/internal/video"
)

// The wire shapes of the flight-recorder records: the literals flightrec's
// TestWireFormat pins byte for byte, with the values generalized. Field names
// and order are exact.
var (
	spanWire = regexp.MustCompile(`^\{"start_ns":\d+,"dur_ns":\d+,"session":\d+,"ok":(true|false),` +
		`"stage":"(ratelimit|inflight|session|arena|decide|respond)"\}$`)
	incidentWire = regexp.MustCompile(`^\{"seq":\d+,"session":\d+,"kind":"(oscillation|stall|underrun_risk)",` +
		`"at_s":[-+.\deE]+,"buffer_s":[-+.\deE]+,"rung":-?\d+\}$`)
)

// TestServerEndpointSmoke boots the introspection mux, drives a few /decide
// sessions through it, and checks that /metrics serves valid Prometheus text
// exposition covering the solver, the shared cache, and per-session
// buffer/bitrate histograms — and that /debug/decisions streams parseable
// JSONL. This is the CI smoke gate for the observability surface.
func TestServerEndpointSmoke(t *testing.T) {
	col := telemetry.NewCollector(nil, 256)
	intro, err := introspectionMux(video.Prototype(), httpseg.DecideOptions{CacheEntries: 1 << 12, TableQuantum: 0.5}, col)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(intro.mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// The HTTP surface serves no media: segments travel only over the
	// binary protocol on -addr.
	for _, path := range []string{"/manifest.mpd", "/segment/0/0"} {
		if resp, _ := get(path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Drive two sessions through enough decisions to touch the solver,
	// the decision table, and the shared cache. Each session key must map
	// to one stable numeric id, distinct across keys.
	ids := map[string]int{}
	for i := 0; i < 8; i++ {
		for _, sess := range []string{"alice", "bob"} {
			resp, body := get(fmt.Sprintf("/decide?session=%s&buffer=%g&throughput=12", sess, 2.0+float64(i)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/decide: status %d: %s", resp.StatusCode, body)
			}
			var reply struct {
				Session int     `json:"session"`
				Rung    int     `json:"rung"`
				Bitrate float64 `json:"bitrate_mbps"`
			}
			if err := json.Unmarshal([]byte(body), &reply); err != nil {
				t.Fatalf("/decide reply not JSON: %v\n%s", err, body)
			}
			if prev, ok := ids[sess]; ok && prev != reply.Session {
				t.Fatalf("session %q id changed %d -> %d", sess, prev, reply.Session)
			}
			ids[sess] = reply.Session
		}
	}
	if ids["alice"] == ids["bob"] {
		t.Fatalf("distinct session keys share id %d", ids["alice"])
	}

	// A third session at in-domain throughput: the Prototype ladder tops out
	// near 2 Mb/s, so the 12 Mb/s sessions above land outside the compiled
	// table's domain (fallbacks) while this one lands inside it (hits). Both
	// counters must end up nonzero below.
	for i := 0; i < 8; i++ {
		resp, body := get(fmt.Sprintf("/decide?session=carol&buffer=%g&throughput=1.5", 2.0+float64(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/decide: status %d: %s", resp.StatusCode, body)
		}
	}

	// /metrics must be valid Prometheus text exposition.
	resp, exposition := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	families, err := telemetry.ParseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, exposition)
	}
	for _, family := range []string{
		"soda_decisions_total",
		"soda_solver_solves_total",
		"soda_solver_nodes_total",
		"soda_shared_cache_lookups_total",
		"soda_server_shared_cache_entries",
		"soda_server_sessions_active",
		"soda_server_inflight_decides",
		"soda_server_evictions_total",
		"soda_server_rejected_total",
		"soda_server_decide_latency_seconds",
		"soda_buffer_level_seconds",
		"soda_decided_bitrate_mbps",
		"soda_decide_latency_seconds",
		"soda_decision_table_lookups_total",
		"soda_decision_table_hits_total",
		"soda_decision_table_fallbacks_total",
		"soda_server_decision_tables",
		"soda_server_decision_table_cells",
		"soda_server_stage_latency_seconds",
		"soda_qoe_incidents_total",
	} {
		if _, ok := families[family]; !ok {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	// Histograms expose only their non-empty buckets of the one log-linear
	// layout: ascending le edges, cumulative counts that never decrease, and
	// a closing +Inf bucket equal to _count.
	for _, family := range []string{"soda_buffer_level_seconds", "soda_server_decide_latency_seconds"} {
		lastLe, lastCount, buckets := math.Inf(-1), -1.0, 0
		for _, line := range strings.Split(exposition, "\n") {
			rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
			if !ok {
				continue
			}
			le, count, _ := strings.Cut(rest, `"} `)
			edge, err1 := strconv.ParseFloat(le, 64)
			n, err2 := strconv.ParseFloat(count, 64)
			if err1 != nil || err2 != nil || edge <= lastLe || n < lastCount {
				t.Fatalf("%s: bucket line %q after le=%g count %g", family, line, lastLe, lastCount)
			}
			lastLe, lastCount = edge, n
			buckets++
		}
		if buckets < 2 || buckets > 40 || !math.IsInf(lastLe, 1) {
			t.Errorf("%s: %d bucket lines ending at le=%g, want a few sparse ones ending at +Inf", family, buckets, lastLe)
		}
		if !strings.Contains(exposition, fmt.Sprintf("%s_count %g\n", family, lastCount)) {
			t.Errorf("%s: +Inf bucket %g does not match _count", family, lastCount)
		}
	}

	// The table counters must reflect the traffic above: the in-domain
	// session hit the table, the over-the-top sessions fell back, and the
	// scrape hook published the resident table set.
	metric := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(exposition, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("metric %s has unparseable value %q", name, rest)
				}
				return v
			}
		}
		t.Fatalf("metric %s has no sample line", name)
		return 0
	}
	// Each of the 24 served decides above is timed once as a whole, in
	// soda_server_decide_latency_seconds; the stage family carries the five
	// pipeline stages and no respond series.
	if got := metric("soda_server_decide_latency_seconds_count"); got != 24 {
		t.Errorf("soda_server_decide_latency_seconds_count = %g, want 24", got)
	}
	if got := metric(`soda_server_stage_latency_seconds_count{stage="decide"}`); got != 24 {
		t.Errorf(`stage="decide" count = %g, want 24`, got)
	}
	if strings.Contains(exposition, `soda_server_stage_latency_seconds_count{stage="respond"}`) {
		t.Error(`/metrics times served requests twice: a stage="respond" series beside soda_server_decide_latency_seconds`)
	}

	hits, fallbacks := metric("soda_decision_table_hits_total"), metric("soda_decision_table_fallbacks_total")
	if hits == 0 || fallbacks == 0 {
		t.Errorf("table traffic hits/fallbacks = %g/%g, want both nonzero", hits, fallbacks)
	}
	if lookups := metric("soda_decision_table_lookups_total"); lookups != hits+fallbacks {
		t.Errorf("table lookups %g != hits %g + fallbacks %g", lookups, hits, fallbacks)
	}
	if n := metric("soda_server_decision_tables"); n < 1 {
		t.Errorf("soda_server_decision_tables = %g, want >= 1", n)
	}
	if cells := metric("soda_server_decision_table_cells"); cells <= 0 {
		t.Errorf("soda_server_decision_table_cells = %g, want > 0", cells)
	}

	// /debug/decisions streams one JSON object per line, newest window last.
	resp, jsonl := get("/debug/decisions?limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/decisions: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/debug/decisions Content-Type = %q", ct)
	}
	lines, sawTableHit := 0, false
	sc := bufio.NewScanner(strings.NewReader(jsonl))
	for sc.Scan() {
		var ev telemetry.DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("/debug/decisions line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		if ev.Rung < 0 || ev.Bitrate <= 0 {
			t.Errorf("/debug/decisions line %d: rung %d bitrate %g", lines, ev.Rung, ev.Bitrate)
		}
		sawTableHit = sawTableHit || ev.TableHits > 0
		lines++
	}
	if lines != 5 {
		t.Fatalf("/debug/decisions?limit=5 returned %d lines", lines)
	}
	// The newest window is the in-domain session's, so its events must carry
	// the table_hits attribution through the JSONL round-trip.
	if !sawTableHit {
		t.Errorf("no event in the newest window reports table hits:\n%s", jsonl)
	}

	if resp, _ := get("/debug/decisions?limit=oops"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", resp.StatusCode)
	}

	// ?session= narrows /debug/decisions to one session's events.
	resp, filtered := get(fmt.Sprintf("/debug/decisions?session=%d", ids["alice"]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/decisions?session=: status %d", resp.StatusCode)
	}
	aliceLines := 0
	sc = bufio.NewScanner(strings.NewReader(filtered))
	for sc.Scan() {
		var ev telemetry.DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("filtered decisions line not JSON: %v", err)
		}
		if int(ev.Session) != ids["alice"] {
			t.Fatalf("?session=%d returned an event for session %d", ids["alice"], ev.Session)
		}
		aliceLines++
	}
	if aliceLines != 8 {
		t.Errorf("/debug/decisions?session= returned %d lines, want 8", aliceLines)
	}

	// /debug/spans streams the pipeline's stage spans; every decide above
	// recorded one span per stage, so the decide-stage filter must return
	// exactly one parseable span per successful decide.
	resp, spansBody := get("/debug/spans?stage=decide")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/spans: status %d", resp.StatusCode)
	}
	spanLines := 0
	sc = bufio.NewScanner(strings.NewReader(spansBody))
	for sc.Scan() {
		if !spanWire.Match(sc.Bytes()) {
			t.Errorf("/debug/spans line off the wire format: %s", sc.Text())
		}
		var sp flightrec.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("/debug/spans line not JSON: %v\n%s", err, sc.Text())
		}
		if sp.Stage != flightrec.StageDecide || sp.Dur < 0 || !sp.OK {
			t.Errorf("decide span = %+v", sp)
		}
		spanLines++
	}
	if spanLines != 24 {
		t.Errorf("/debug/spans?stage=decide returned %d spans, want 24", spanLines)
	}
	if resp, _ := get("/debug/spans?stage=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad stage: status %d, want 400", resp.StatusCode)
	}

	// /debug/incidents serves JSONL. Each of the three sessions above opened
	// at a 2 s buffer, under the watchdog's 4 s horizon, so each logged one
	// underrun-risk incident, numbered in log order.
	resp, incidentsBody := get("/debug/incidents")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/incidents: status %d", resp.StatusCode)
	}
	incidentLines := strings.Split(strings.TrimSpace(incidentsBody), "\n")
	if len(incidentLines) != 3 {
		t.Errorf("/debug/incidents returned %d lines, want 3:\n%s", len(incidentLines), incidentsBody)
	}
	for i, line := range incidentLines {
		if !incidentWire.MatchString(line) || !strings.HasPrefix(line, fmt.Sprintf(`{"seq":%d,`, i)) {
			t.Errorf("/debug/incidents line %d off the wire format: %s", i, line)
		}
	}

	// /debug/sessions?id=N reconstructs one session's timeline, and its
	// decision list must match the ring's ?session= filter line for line.
	resp, timeline := get(fmt.Sprintf("/debug/sessions?id=%d", ids["alice"]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/sessions: status %d", resp.StatusCode)
	}
	var tl struct {
		Session   int                       `json:"session"`
		Decisions []telemetry.DecisionEvent `json:"decisions"`
		Spans     []flightrec.Span          `json:"spans"`
	}
	if err := json.Unmarshal([]byte(timeline), &tl); err != nil {
		t.Fatalf("/debug/sessions not JSON: %v", err)
	}
	if tl.Session != ids["alice"] || len(tl.Decisions) != aliceLines {
		t.Errorf("timeline session=%d decisions=%d, want session=%d decisions=%d",
			tl.Session, len(tl.Decisions), ids["alice"], aliceLines)
	}
	for i, ev := range tl.Decisions {
		if int(ev.Session) != ids["alice"] {
			t.Errorf("timeline decision %d belongs to session %d", i, ev.Session)
		}
	}
	if len(tl.Spans) == 0 {
		t.Error("timeline carries no spans for an instrumented session")
	}
	// The timeline's spans and incidents keep the JSONL wire format.
	var raw struct {
		Spans     []json.RawMessage `json:"spans"`
		Incidents []json.RawMessage `json:"incidents"`
	}
	if err := json.Unmarshal([]byte(timeline), &raw); err != nil {
		t.Fatalf("/debug/sessions not JSON: %v", err)
	}
	if len(raw.Incidents) != 1 {
		t.Errorf("timeline carries %d incidents, want 1", len(raw.Incidents))
	}
	for i, rec := range append(raw.Spans, raw.Incidents...) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec); err != nil {
			t.Fatal(err)
		}
		wire := spanWire
		if i >= len(raw.Spans) {
			wire = incidentWire
		}
		if !wire.Match(compact.Bytes()) {
			t.Errorf("/debug/sessions record off the wire format: %s", compact.Bytes())
		}
	}

	// The same timeline as Chrome trace-event JSON must parse and carry
	// trace events for the session's thread.
	resp, traceBody := get(fmt.Sprintf("/debug/sessions?id=%d&format=trace", ids["alice"]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/sessions format=trace: status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(traceBody), &chrome); err != nil {
		t.Fatalf("trace export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 || chrome.DisplayTimeUnit != "ms" {
		t.Errorf("trace export: %d events, unit %q", len(chrome.TraceEvents), chrome.DisplayTimeUnit)
	}

	for _, bad := range []string{
		"/debug/sessions",
		"/debug/sessions?id=-1",
		"/debug/sessions?id=zed",
		"/debug/sessions?id=1&format=xml",
	} {
		if resp, _ := get(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
