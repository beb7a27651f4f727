package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

func newService(t *testing.T, opts httpseg.DecideOptions) *httpseg.DecideService {
	t.Helper()
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 1 << 12
	}
	if opts.TableQuantum == 0 {
		opts.TableQuantum = 0.5
	}
	svc, err := httpseg.NewDecideService(video.Prototype(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestClosedLoopInProc(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	rep, err := Run(Config{
		Mode:     ClosedLoop,
		Sessions: 8,
		Requests: 400,
		Seed:     1,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Mode)
	}
	if rep.Requests != 400 {
		t.Errorf("requests = %d, want 400", rep.Requests)
	}
	if rep.OK != 400 {
		t.Errorf("ok = %d, want 400 (rejected %d, errors %d)", rep.OK, rep.Rejected(), rep.Errors)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms || rep.P999Ms < rep.P99Ms {
		t.Errorf("quantiles not ordered: p50=%g p99=%g p999=%g", rep.P50Ms, rep.P99Ms, rep.P999Ms)
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved rps = %g, want > 0", rep.AchievedRPS)
	}
	// The in-proc target surfaces the server's session table.
	if rep.ServerSessions != 8 {
		t.Errorf("server sessions = %d, want 8", rep.ServerSessions)
	}
	if err := rep.Gate(1000, 0, 0); err != nil {
		t.Errorf("clean run failed a generous gate: %v", err)
	}
	out, err := rep.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"p99_ms", "rejected_pct", "server_sessions_active", "achieved_rps", "stall_seconds"} {
		if !strings.Contains(string(out), key) {
			t.Errorf("report JSON missing %q:\n%s", key, out)
		}
	}
}

func TestClosedLoopThinkTime(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	start := time.Now()
	rep, err := Run(Config{
		Mode:      ClosedLoop,
		Sessions:  2,
		Requests:  10,
		ThinkTime: 5 * time.Millisecond,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	// 10 requests over 2 sessions with 5 ms think ≈ 25 ms floor.
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("closed loop with think time finished in %v, want >= 20ms", elapsed)
	}
	if rep.OK != 10 {
		t.Errorf("ok = %d, want 10", rep.OK)
	}
}

// TestRunManyWorkers: a closed loop on more than 256 workers — more than
// any shard-count clamp a session store might apply — still serves every
// session it was asked to run.
func TestRunManyWorkers(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	rep, err := Run(Config{
		Mode:     ClosedLoop,
		Sessions: 600,
		Requests: 1200,
		Workers:  300,
		Seed:     4,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1200 || rep.OK != 1200 {
		t.Errorf("requests/ok = %d/%d, want 1200/1200 (rejected %d, errors %d)",
			rep.Requests, rep.OK, rep.Rejected(), rep.Errors)
	}
	if rep.ServerSessions != 600 {
		t.Errorf("server sessions = %d, want 600", rep.ServerSessions)
	}
}

func TestOpenLoopInProc(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	rep, err := Run(Config{
		Mode:     OpenLoop,
		Sessions: 100,
		Requests: 1000,
		RPS:      50000,
		Seed:     2,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	if rep.Requests != 1000 || rep.OK != 1000 {
		t.Errorf("requests/ok = %d/%d, want 1000/1000", rep.Requests, rep.OK)
	}
	if rep.P99Ms <= 0 {
		t.Errorf("p99 = %g, want > 0", rep.P99Ms)
	}
	if rep.ServerSessions != 100 {
		t.Errorf("server sessions = %d, want 100", rep.ServerSessions)
	}
}

// TestGateCatchesRegression is the proof the CI p99 gate works: the same
// workload passes on the clean build and fails when the decide path is
// deliberately slowed — so a real latency regression cannot slip through.
func TestGateCatchesRegression(t *testing.T) {
	const maxP99Ms, maxRejectedPct = 5.0, 0.0
	cfg := Config{Mode: ClosedLoop, Sessions: 4, Requests: 200, Seed: 3}

	clean, err := Run(cfg, &InProc{Svc: newService(t, httpseg.DecideOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Gate(maxP99Ms, maxRejectedPct, 0); err != nil {
		t.Fatalf("clean build failed the gate: %v (p99=%.3fms)", err, clean.P99Ms)
	}

	regressed, err := Run(cfg, &InProc{
		Svc:          newService(t, httpseg.DecideOptions{}),
		PerturbDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := regressed.Gate(maxP99Ms, maxRejectedPct, 0); err == nil {
		t.Fatalf("regressed build passed the gate (p99=%.3fms)", regressed.P99Ms)
	}
}

func TestGateThresholds(t *testing.T) {
	base := Report{Requests: 100, OK: 99, RejectedRate: 1, RejectedPct: 1, P99Ms: 2,
		QoEIncidents: 10, QoEIncidentsPer1k: 100}
	cases := []struct {
		name              string
		mutate            func(*Report)
		maxP99Ms          float64
		maxRejectedPct    float64
		maxIncidentsPer1k float64
		wantFail          bool
	}{
		{"clean", nil, 5, 2, 0, false},
		{"p99 over", nil, 1, 2, 0, true},
		{"p99 gate disabled", nil, 0, 2, 0, false},
		{"rejections over", nil, 5, 0.5, 0, true},
		{"rejection gate disabled", func(r *Report) { r.RejectedPct = 50 }, 5, -1, 0, false},
		{"transport errors", func(r *Report) { r.Errors = 1 }, 5, 2, 0, true},
		{"nothing succeeded", func(r *Report) { r.OK = 0 }, 5, 2, 0, true},
		{"incidents over", nil, 5, 2, 50, true},
		{"incidents within", nil, 5, 2, 200, false},
		{"incident gate disabled", func(r *Report) { r.QoEIncidentsPer1k = 1e6 }, 5, 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base
			if tc.mutate != nil {
				tc.mutate(&rep)
			}
			err := rep.Gate(tc.maxP99Ms, tc.maxRejectedPct, tc.maxIncidentsPer1k)
			if (err != nil) != tc.wantFail {
				t.Errorf("Gate(%g, %g, %g) = %v, want fail=%v", tc.maxP99Ms, tc.maxRejectedPct, tc.maxIncidentsPer1k, err, tc.wantFail)
			}
		})
	}
}

func TestRejectionAccounting(t *testing.T) {
	// One token per client-second and a burst of two: closed-loop sessions
	// issuing back-to-back decides must mostly be shed with 429s.
	svc := newService(t, httpseg.DecideOptions{RPSPerClient: 1})
	rep, err := Run(Config{Mode: ClosedLoop, Sessions: 4, Requests: 100}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedRate == 0 {
		t.Fatal("rate limiter never fired under a saturating closed loop")
	}
	if got := rep.OK + rep.Rejected(); got != rep.Requests {
		t.Errorf("ok %d + rejected %d != requests %d", rep.OK, rep.Rejected(), rep.Requests)
	}
	if rep.RejectedPct <= 0 {
		t.Errorf("rejected pct = %g, want > 0", rep.RejectedPct)
	}
	if err := rep.Gate(1000, 0, 0); err == nil {
		t.Error("gate with a zero rejection budget passed a shedding run")
	}
}

func TestHTTPTarget(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	rep, err := Run(Config{
		Mode:     ClosedLoop,
		Sessions: 4,
		Requests: 60,
		Seed:     4,
	}, &HTTPTarget{BaseURL: srv.URL, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 60 {
		t.Fatalf("ok = %d of %d over HTTP (errors %d)", rep.OK, rep.Requests, rep.Errors)
	}
	// The HTTP target cannot see the server's session table.
	if rep.ServerSessions != 0 || rep.ServerEvictions != 0 {
		t.Errorf("HTTP run reported server stats %d/%d, want 0/0", rep.ServerSessions, rep.ServerEvictions)
	}
}

func TestHTTPTargetStatusMapping(t *testing.T) {
	tgt := &HTTPTarget{}
	req := &httpseg.DecideRequest{Session: "s", Buffer: units.Seconds(5), Throughput: units.Mbps(5), Segment: -1}

	// 429 and 503 map onto rejection statuses with the advisory backoff.
	for _, tc := range []struct {
		code int
		want httpseg.DecideStatus
	}{
		{429, httpseg.StatusRejectedRate},
		{503, httpseg.StatusRejectedLoad},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(tc.code)
		}))
		tgt.BaseURL = srv.URL
		res, err := tgt.Decide(req)
		srv.Close()
		if err != nil {
			t.Fatalf("status %d: %v", tc.code, err)
		}
		if res.Status != tc.want || res.RetryAfter != 3*time.Second {
			t.Errorf("status %d -> (%d, %v), want (%d, 3s)", tc.code, res.Status, res.RetryAfter, tc.want)
		}
	}

	// Unexpected statuses and malformed bodies are transport errors.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(500)
	}))
	tgt.BaseURL = srv.URL
	if _, err := tgt.Decide(req); err == nil {
		t.Error("500 did not surface as an error")
	}
	srv.Close()

	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json"))
	}))
	tgt.BaseURL = srv.URL
	if _, err := tgt.Decide(req); err == nil {
		t.Error("malformed reply did not surface as an error")
	}
	srv.Close()

	// A request carrying every optional field still round-trips the query
	// encoding (cap, segment, prev, client).
	full := &httpseg.DecideRequest{
		Session: "s", Client: "c", Buffer: units.Seconds(5), Throughput: units.Mbps(5),
		BufferCap: units.Seconds(30), Segment: 7, Prev: 1, HavePrev: true,
	}
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		for key, want := range map[string]string{
			"session": "s", "client": "c", "cap": "30", "segment": "7", "prev": "1",
		} {
			if got := q.Get(key); got != want {
				t.Errorf("query %s = %q, want %q", key, got, want)
			}
		}
		w.Write([]byte(`{"session":1,"segment":7,"rung":1,"bitrate_mbps":1.5}`))
	}))
	defer echo.Close()
	tgt.BaseURL = echo.URL
	res, err := tgt.Decide(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != httpseg.StatusOK || res.Rung != 1 || res.BitrateMbps != 1.5 {
		t.Errorf("full request result = %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	if _, err := Run(Config{Mode: ClosedLoop, Requests: 0}, &InProc{Svc: svc}); err == nil {
		t.Error("zero request budget accepted")
	}
	if _, err := Run(Config{Mode: OpenLoop, Requests: 10, RPS: 0}, &InProc{Svc: svc}); err == nil {
		t.Error("open loop without RPS accepted")
	}
}

func TestTracePoolSharing(t *testing.T) {
	// More sessions than the pool cap: sessions must still get distinct keys
	// and staggered cursors, and the run must stay within budget.
	r := &runner{cfg: Config{Sessions: 300, Seed: 5}.normalize()}
	if err := r.buildSessions(); err != nil {
		t.Fatal(err)
	}
	if len(r.pool) != 256 {
		t.Fatalf("trace pool holds %d traces, want the 256 cap", len(r.pool))
	}
	keys := map[string]bool{}
	for i, st := range r.states {
		keys[r.keys[i]] = true
		// Session i shares trace i mod 256 and starts one sample further
		// along it than the session 256 before it.
		if int(st.Trace) != i%256 || int(st.Cursor) != i/256 {
			t.Fatalf("session %d on trace %d at cursor %d, want trace %d at cursor %d",
				i, st.Trace, st.Cursor, i%256, i/256)
		}
	}
	if len(keys) != 300 {
		t.Fatalf("%d distinct session keys for 300 sessions", len(keys))
	}

	svc := newService(t, httpseg.DecideOptions{})
	rep, err := Run(Config{
		Mode:     ClosedLoop,
		Sessions: 300, // > the 256 trace-pool cap
		Requests: 600,
		Seed:     5,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 600 {
		t.Errorf("ok = %d, want 600", rep.OK)
	}
	if rep.ServerSessions != 300 {
		t.Errorf("server sessions = %d, want 300", rep.ServerSessions)
	}
}

// TestWatchdogAttached pins the client-side QoE-watchdog wiring: a run with a
// watchdog fills the report's incident fields and JSON schema; virtual
// sessions start at buffer 0 and immediately drain through the underrun band,
// so a horizon-triggering workload must produce incidents.
func TestWatchdogAttached(t *testing.T) {
	svc := newService(t, httpseg.DecideOptions{})
	wd := flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{UnderrunHorizon: units.Seconds(30)})
	rep, err := Run(Config{
		Mode:     ClosedLoop,
		Sessions: 4,
		Requests: 200,
		Seed:     5,
		// The players' 20 s buffer cap < the 30 s horizon: every session
		// lives in the underrun-risk band its whole life, so at least one
		// incident per session is guaranteed.
		Watchdog: wd,
	}, &InProc{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.QoEIncidents == 0 {
		t.Fatal("watchdog with a 30 s underrun horizon over a 20 s buffer cap observed no incidents")
	}
	if rep.QoEIncidents != wd.Total() {
		t.Errorf("report incidents %d != watchdog total %d", rep.QoEIncidents, wd.Total())
	}
	wantPer1k := flightrec.PerThousandSessions(rep.QoEIncidents, 4)
	if rep.QoEIncidentsPer1k != wantPer1k {
		t.Errorf("per-1k = %g, want %g", rep.QoEIncidentsPer1k, wantPer1k)
	}
	out, err := rep.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"qoe_incidents", "qoe_incidents_per_1k_sessions"} {
		if !strings.Contains(string(out), key) {
			t.Errorf("report JSON missing %q:\n%s", key, out)
		}
	}
	// A strict incident gate must fire on this report; a generous one passes.
	if err := rep.Gate(0, -1, 0.001); err == nil {
		t.Error("strict incident gate passed an incident-heavy run")
	}
	if err := rep.Gate(0, -1, 1e9); err != nil {
		t.Errorf("generous incident gate failed: %v", err)
	}
}

// greedyTarget answers every decide with rung 0 at a bitrate far above the
// link.
type greedyTarget struct{ bitrate float64 }

func (g greedyTarget) Decide(*httpseg.DecideRequest) (httpseg.DecideResult, error) {
	return httpseg.DecideResult{Status: httpseg.StatusOK, Rung: 0, BitrateMbps: g.bitrate}, nil
}

// rungZero is the single-session twin of greedyTarget.
type rungZero struct{}

func (rungZero) Name() string                     { return "rung-zero" }
func (rungZero) Decide(*abr.Context) abr.Decision { return abr.Decision{Rung: 0} }
func (rungZero) Reset()                           {}

// TestPlayerChargesStall proves the virtual players run the simulator's
// player: a session whose target always picks a rung far above the link
// charges exactly the stall sim.Run charges on the same trace with a
// controller that always picks that rung.
func TestPlayerChargesStall(t *testing.T) {
	const requests = 60
	rep, err := Run(Config{Mode: ClosedLoop, Sessions: 1, Requests: requests, Seed: 3}, greedyTarget{bitrate: 4000})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sim.TracePool(tracegen.Profile{}, 1, units.Seconds(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(pool[0], sim.Config{
		Ladder:         video.NewLadder([]float64{4000}, playerSegment),
		BufferCap:      playerBufferCap,
		SessionSeconds: requests * playerSegment,
		Controller:     rungZero{},
		Predictor:      predictor.NewEMA(units.Seconds(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests || res.Metrics.RebufferSec <= 0 {
		t.Fatalf("ok = %d, sim.Run stalled %g s; want %d and > 0", rep.OK, res.Metrics.RebufferSec, requests)
	}
	if rep.StallSeconds != float64(res.Metrics.RebufferSec) {
		t.Fatalf("report stall = %g s, sim.Run stalled %g s", rep.StallSeconds, res.Metrics.RebufferSec)
	}
}
