package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/abr"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	// Register the SODA and baseline controllers in the abr registry.
	_ "repro/internal/baseline"
	_ "repro/internal/core"
)

// fixedController always picks the same rung.
type fixedController struct{ rung int }

func (f *fixedController) Name() string                     { return "fixed" }
func (f *fixedController) Decide(*abr.Context) abr.Decision { return abr.Decision{Rung: f.rung} }
func (f *fixedController) Reset()                           {}

// waitOnceController waits on its first call, then picks rung 0.
type waitOnceController struct{ waited bool }

func (w *waitOnceController) Name() string { return "wait-once" }
func (w *waitOnceController) Decide(ctx *abr.Context) abr.Decision {
	if !w.waited && ctx.Buffer > 1 {
		w.waited = true
		return abr.Wait(units.Seconds(0.5))
	}
	return abr.Decision{Rung: 0}
}
func (w *waitOnceController) Reset() {}

// alwaysWaitController waits forever: must trip the deadlock guard or the
// empty-buffer override.
type alwaysWaitController struct{}

func (alwaysWaitController) Name() string                     { return "always-wait" }
func (alwaysWaitController) Decide(*abr.Context) abr.Decision { return abr.Wait(units.Seconds(1)) }
func (alwaysWaitController) Reset()                           {}

func baseConfig(ctrl abr.Controller) Config {
	return Config{
		Ladder:          video.Mobile(),
		BufferCap:       units.Seconds(20),
		StartupSegments: 1,
		SessionSeconds:  units.Seconds(120),
		Controller:      ctrl,
		Predictor:       predictor.NewEMA(units.Seconds(4)),
	}
}

func TestSteadyStateNoRebufferNoSwitch(t *testing.T) {
	// Constant 12 Mb/s link, fixed rung 2 (7.5 Mb/s): downloads faster than
	// real time, no stalls, no switches, buffer pinned at the cap.
	tr := trace.Constant(units.Mbps(12), units.Seconds(300))
	cfg := baseConfig(&fixedController{rung: 2})
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Segments != 60 {
		t.Fatalf("segments = %d", res.Metrics.Segments)
	}
	if res.Metrics.RebufferRatio != 0 {
		t.Errorf("rebuffer ratio = %v", res.Metrics.RebufferRatio)
	}
	if res.Metrics.SwitchRate != 0 {
		t.Errorf("switch rate = %v", res.Metrics.SwitchRate)
	}
	wantUtil := video.Mobile().LogUtility(2)
	if math.Abs(res.Metrics.MeanUtility-wantUtil) > 1e-9 {
		t.Errorf("utility = %v, want %v", res.Metrics.MeanUtility, wantUtil)
	}
	// Total played video must equal the session length.
	if math.Abs(float64(res.Metrics.PlaySec-120)) > 1e-6 {
		t.Errorf("played %v s, want 120", res.Metrics.PlaySec)
	}
}

func TestOverdrivenRungRebuffers(t *testing.T) {
	// 4 Mb/s link, fixed top rung (12 Mb/s): every segment takes 3x real
	// time; the session must stall heavily.
	tr := trace.Constant(units.Mbps(4), units.Seconds(2000))
	cfg := baseConfig(&fixedController{rung: 3})
	cfg.SessionSeconds = 60
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RebufferRatio < 0.4 {
		t.Errorf("rebuffer ratio = %v, want heavy stalling", res.Metrics.RebufferRatio)
	}
	if res.Metrics.RebufferEvents == 0 {
		t.Error("no rebuffer events recorded")
	}
	// Conservation: played seconds equal the video length.
	if math.Abs(float64(res.Metrics.PlaySec-60)) > 1e-6 {
		t.Errorf("played %v s, want 60", res.Metrics.PlaySec)
	}
	// Duration = play + stalls (startup tracked separately).
	wantDur := res.Metrics.PlaySec + res.Metrics.RebufferSec + res.Metrics.StartupSec
	if math.Abs(float64(res.Duration-wantDur)) > 1e-6 {
		t.Errorf("duration %v != play+stall+startup %v", res.Duration, wantDur)
	}
}

func TestStartupNotChargedAsRebuffering(t *testing.T) {
	tr := trace.Constant(units.Mbps(4), units.Seconds(300))
	cfg := baseConfig(&fixedController{rung: 0})
	cfg.StartupSegments = 3
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.StartupSec <= 0 {
		t.Error("no startup delay recorded")
	}
	if res.Metrics.RebufferRatio != 0 {
		t.Errorf("startup leaked into rebuffering: %v", res.Metrics.RebufferRatio)
	}
}

func TestBufferNeverExceedsCap(t *testing.T) {
	// Very fast link, low rung: the player must idle at the cap rather than
	// overfill.
	tr := trace.Constant(units.Mbps(100), units.Seconds(400))
	cfg := baseConfig(&fixedController{rung: 0})
	cfg.RecordTrajectory = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Trajectory {
		if p.Buffer > cfg.BufferCap+1e-9 {
			t.Fatalf("buffer %v exceeded cap at t=%v", p.Buffer, p.Time)
		}
	}
}

func TestControllerWaitIsHonored(t *testing.T) {
	tr := trace.Constant(units.Mbps(20), units.Seconds(300))
	ctrl := &waitOnceController{}
	cfg := baseConfig(ctrl)
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waits != 1 {
		t.Errorf("waits = %d, want 1", res.Waits)
	}
	if res.Metrics.Segments != 60 {
		t.Errorf("segments = %d", res.Metrics.Segments)
	}
}

func TestAlwaysWaitDoesNotDeadlock(t *testing.T) {
	tr := trace.Constant(units.Mbps(20), units.Seconds(300))
	cfg := baseConfig(alwaysWaitController{})
	cfg.SessionSeconds = 20
	// The empty-buffer override forces rung 0 on the first segment; after
	// that the controller waits, drains, waits... the iteration guard must
	// eventually fire OR the session must complete by draining. Either way,
	// Run must return.
	res, err := Run(tr, cfg)
	if err != nil && !errors.Is(err, ErrStuck) {
		t.Fatalf("unexpected error: %v", err)
	}
	_ = res
}

func TestValidation(t *testing.T) {
	tr := trace.Constant(units.Mbps(10), units.Seconds(100))
	good := baseConfig(&fixedController{})
	cases := []func(*Config){
		func(c *Config) { c.Controller = nil },
		func(c *Config) { c.Predictor = nil },
		func(c *Config) { c.Ladder = video.Ladder{} },
		func(c *Config) { c.BufferCap = 0.5 },
		func(c *Config) { c.BufferCap = units.Seconds(math.NaN()) },
		func(c *Config) { c.BufferCap = units.Seconds(math.Inf(1)) },
		func(c *Config) { c.BufferCap = units.Seconds(math.Inf(-1)) },
		func(c *Config) { c.LatencySeconds = -1 },
		func(c *Config) { c.SessionSeconds = 0.5 },
	}
	for i, f := range cases {
		cfg := good
		f(&cfg)
		if _, err := Run(tr, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestZeroBandwidthTraceErrors(t *testing.T) {
	tr := trace.Constant(units.Mbps(0), units.Seconds(100))
	if _, err := Run(tr, baseConfig(&fixedController{})); err == nil {
		t.Error("zero-bandwidth trace should fail")
	}
}

func TestLatencyIncreasesDownloadTime(t *testing.T) {
	tr := trace.Constant(units.Mbps(8), units.Seconds(400))
	fast := baseConfig(&fixedController{rung: 2})
	slow := fast
	slow.LatencySeconds = 0.5
	slow.Controller = &fixedController{rung: 2}
	slow.Predictor = predictor.NewEMA(units.Seconds(4))
	rf, err := Run(tr, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(tr, slow)
	if err != nil {
		t.Fatal(err)
	}
	// 7.5 Mb/s on an 8 Mb/s link downloads in 1.875 s per 2 s segment;
	// adding 0.5 s latency makes each segment slower than real time and
	// must produce stalls.
	if rf.Metrics.RebufferSec > 0 {
		t.Errorf("no-latency run stalled %v s", rf.Metrics.RebufferSec)
	}
	if rs.Metrics.RebufferSec <= 0 {
		t.Error("latency run should stall")
	}
}

func TestPredictorReceivesObservations(t *testing.T) {
	tr := trace.Constant(units.Mbps(16), units.Seconds(200))
	p := predictor.NewEMA(units.Seconds(4))
	cfg := baseConfig(&fixedController{rung: 1})
	cfg.Predictor = p
	if _, err := Run(tr, cfg); err != nil {
		t.Fatal(err)
	}
	// 4 Mb/s rung over a 16 Mb/s link: measured throughput 16 Mb/s.
	if got := p.Predict(units.Seconds(0), units.Seconds(2)); math.Abs(float64(got-16)) > 0.5 {
		t.Errorf("predictor learned %v, want ~16", got)
	}
}

func TestSODASessionHealthy(t *testing.T) {
	// End-to-end smoke: SODA over a volatile generated trace must produce a
	// sane session (no deadlock, low stalls, utilities within range).
	p := tracegen.FourG()
	tr, err := p.Session(units.Seconds(300), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := abr.New("soda", video.Mobile())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ctrl)
	cfg.SessionSeconds = 300
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Segments != 150 {
		t.Fatalf("segments = %d", m.Segments)
	}
	if m.MeanUtility < 0 || m.MeanUtility > 1 {
		t.Errorf("utility = %v", m.MeanUtility)
	}
	if m.RebufferRatio > 0.2 {
		t.Errorf("SODA rebuffer ratio = %v on a 13 Mb/s mean trace", m.RebufferRatio)
	}
	if m.SwitchRate > 0.5 {
		t.Errorf("SODA switch rate = %v, should be smooth", m.SwitchRate)
	}
}

func TestRunDatasetParallelOrderAndDeterminism(t *testing.T) {
	prof := tracegen.FourG()
	ds, err := tracegen.Generate(prof, 8, units.Seconds(120), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the controller name once up front: calling t.Fatal inside a
	// worker goroutine would wedge the pool.
	if _, err := abr.New("dynamic", video.Mobile()); err != nil {
		t.Fatal(err)
	}
	factory := func() (abr.Controller, predictor.Predictor) {
		c, _ := abr.New("dynamic", video.Mobile())
		return c, predictor.NewEMA(units.Seconds(4))
	}
	base := Config{Ladder: video.Mobile(), BufferCap: units.Seconds(20), SessionSeconds: units.Seconds(120)}
	m1, err := RunDataset(ds.Sessions, factory, base)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunDataset(ds.Sessions, factory, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 8 {
		t.Fatalf("got %d metrics", len(m1))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Errorf("session %d not deterministic across parallel runs", i)
		}
	}
	agg := qoe.Aggregated("dynamic", m1)
	if agg.Sessions != 8 {
		t.Errorf("aggregate sessions = %d", agg.Sessions)
	}
}

func TestRunDatasetPropagatesErrors(t *testing.T) {
	dead := trace.Constant(units.Mbps(0), units.Seconds(120))
	factory := func() (abr.Controller, predictor.Predictor) {
		return &fixedController{}, predictor.NewEMA(units.Seconds(4))
	}
	base := Config{Ladder: video.Mobile(), BufferCap: units.Seconds(20), SessionSeconds: units.Seconds(120)}
	if _, err := RunDataset([]*trace.Trace{dead}, factory, base); err == nil {
		t.Error("dataset error not propagated")
	}
}

func TestTrajectoryRecording(t *testing.T) {
	tr := trace.Constant(units.Mbps(10), units.Seconds(200))
	cfg := baseConfig(&fixedController{rung: 1})
	cfg.RecordTrajectory = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Metrics.Segments {
		t.Fatalf("trajectory %d points for %d segments", len(res.Trajectory), res.Metrics.Segments)
	}
	prevTime := units.Seconds(-1)
	for _, p := range res.Trajectory {
		if p.Time <= prevTime {
			t.Fatalf("trajectory time not increasing at %v", p.Time)
		}
		prevTime = p.Time
		if p.Rung != 1 {
			t.Errorf("trajectory rung = %d", p.Rung)
		}
	}
}

func TestVBRSizesAffectDownloads(t *testing.T) {
	tr := trace.Constant(units.Mbps(9), units.Seconds(400))
	cbr := baseConfig(&fixedController{rung: 2})
	vbr := baseConfig(&fixedController{rung: 2})
	vbr.Sizes = video.VBR{Ladder: video.Mobile(), Sigma: 0.4, Seed: 3}
	rc, err := Run(tr, cbr)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Run(tr, vbr)
	if err != nil {
		t.Fatal(err)
	}
	// 7.5 Mb/s CBR on a 9 Mb/s link never stalls; heavy VBR variation on a
	// tight link should occasionally stall or at least change duration.
	if rc.Duration == rv.Duration {
		t.Error("VBR sizes had no effect on the session")
	}
}

// newRegistered resolves a registered controller, failing the test cleanly
// when the name is missing.
func newRegistered(t *testing.T, name string) (abr.Controller, error) {
	t.Helper()
	return abr.New(name, video.Mobile())
}

// clockPredictor forecasts the decision time it is asked at, so a context's
// prediction bindings show which clock they were made at.
type clockPredictor struct{}

func (clockPredictor) Observe(predictor.Sample)                {}
func (clockPredictor) Predict(now, _ units.Seconds) units.Mbps { return units.Mbps(float64(now)) }
func (clockPredictor) Quantile(now, _ units.Seconds, _ float64) units.Mbps {
	return units.Mbps(float64(now))
}
func (clockPredictor) Reset() {}

// clockChecker records the contexts it is handed and the forecasts made
// through them, and waits on its second decision.
type clockChecker struct {
	contexts map[*abr.Context]bool
	stale    int
	n        int
}

func (c *clockChecker) Name() string { return "clock-checker" }
func (c *clockChecker) Decide(ctx *abr.Context) abr.Decision {
	c.contexts[ctx] = true
	h := units.Seconds(2)
	if ctx.Predict(h) != units.Mbps(float64(ctx.Now)) || ctx.PredictQuantile(0.5, h) != units.Mbps(float64(ctx.Now)) {
		c.stale++
	}
	if c.n++; c.n == 2 {
		return abr.Wait(units.Seconds(0.5))
	}
	return abr.Decision{Rung: 0}
}
func (c *clockChecker) Reset() {}

// TestRunBindsPredictionsOncePerSession pins Run's per-session context: one
// abr.Context serves every decision, its Predict and PredictQuantile forecast
// at each decision's own clock, and a session allocates far less than once
// per decision. Telemetry and a watchdog ride along and count every
// decision, the wait included.
func TestRunBindsPredictionsOncePerSession(t *testing.T) {
	tr := trace.Constant(units.Mbps(10), units.Seconds(1000))
	ctrl := &clockChecker{contexts: map[*abr.Context]bool{}}
	cfg := baseConfig(ctrl)
	cfg.Predictor = clockPredictor{}
	cfg.Telemetry = telemetry.NewCollector(nil, 64)
	cfg.Watchdog = flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl.contexts) != 1 || ctrl.stale != 0 || res.Waits != 1 {
		t.Fatalf("%d contexts, %d stale forecasts, %d waits; want 1, 0, 1", len(ctrl.contexts), ctrl.stale, res.Waits)
	}
	if got, want := cfg.Telemetry.Decisions.Value(), float64(res.Metrics.Segments+res.Waits); got != want {
		t.Fatalf("collector counted %g decisions, want %g", got, want)
	}

	cfg = baseConfig(&fixedController{rung: 1})
	cfg.SessionSeconds = units.Seconds(1000)
	decisions := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		decisions = res.Metrics.Segments + res.Waits
	})
	if allocs > float64(decisions)/10 {
		t.Fatalf("a %d-decision session allocates %g times, want under one per ten decisions", decisions, allocs)
	}
}
