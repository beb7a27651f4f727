package experiments

import (
	"fmt"
	"strings"

	"repro/internal/abr"
	"repro/internal/predictor"
	"repro/internal/prod"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	"repro/internal/player"
)

// Figure10Result reproduces Figure 10: QoE scores and components for every
// controller over the six dataset buckets (Puffer variance quartiles Q1-Q4,
// 5G, 4G).
type Figure10Result struct {
	Buckets     []string
	Controllers []string
	// Aggregates[bucket][controller].
	Aggregates map[string]map[string]qoe.Aggregate
}

// Figure10 runs the full numerical-simulation comparison.
func Figure10(scale Scale) (*Figure10Result, error) {
	res := &Figure10Result{
		Controllers: SimControllers,
		Aggregates:  map[string]map[string]qoe.Aggregate{},
	}

	// Puffer split into variance quartiles. Generate 4x sessions so each
	// quartile holds a full bucket.
	puffer, err := tracegen.Generate(tracegen.Puffer(), 4*scale.SessionsPerDataset, scale.SessionSeconds, scale.Seed)
	if err != nil {
		return nil, err
	}
	quartiles := puffer.QuartilesByRSD()
	type bucket struct {
		name     string
		sessions []*trace.Trace
		ladder   video.Ladder
	}
	buckets := []bucket{}
	for qi, sessions := range quartiles {
		buckets = append(buckets, bucket{
			name:     fmt.Sprintf("puffer-q%d", qi+1),
			sessions: sessions,
			ladder:   video.YouTube4K(),
		})
	}
	for _, spec := range datasetSpecs()[1:] { // 5g, 4g
		ds, err := tracegen.Generate(spec.profile, scale.SessionsPerDataset, scale.SessionSeconds, scale.Seed+9)
		if err != nil {
			return nil, err
		}
		buckets = append(buckets, bucket{name: spec.name, sessions: ds.Sessions, ladder: spec.ladder})
	}

	for _, bk := range buckets {
		res.Buckets = append(res.Buckets, bk.name)
		res.Aggregates[bk.name] = map[string]qoe.Aggregate{}
		for _, name := range res.Controllers {
			var metrics []qoe.Metrics
			var err error
			if name == "soda" {
				metrics, err = runSodaOnSessions(bk.ladder, bk.sessions, scale.SessionSeconds, units.Seconds(20), scale.Telemetry)
			} else {
				metrics, err = runControllerOnSessions(name, bk.ladder, bk.sessions, scale.SessionSeconds, units.Seconds(20))
			}
			if err != nil {
				return nil, fmt.Errorf("figure10: %s/%s: %w", bk.name, name, err)
			}
			res.Aggregates[bk.name][name] = qoe.Aggregated(name, metrics)
		}
	}
	return res, nil
}

// Best returns the controller with the highest mean QoE in a bucket.
func (r *Figure10Result) Best(bucket string) string {
	best, bestScore := "", -1e18
	for _, name := range sortedKeys(r.Aggregates[bucket]) {
		if agg := r.Aggregates[bucket][name]; agg.Score.Mean > bestScore {
			best, bestScore = name, agg.Score.Mean
		}
	}
	return best
}

// Render formats the Figure 10 report.
func (r *Figure10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: mean QoE / utility / rebuffering / switching per dataset bucket\n")
	for _, bucket := range r.Buckets {
		fmt.Fprintf(&b, "== %s\n", bucket)
		for _, name := range r.Controllers {
			fmt.Fprintf(&b, "  %s\n", r.Aggregates[bucket][name].String())
		}
	}
	return b.String()
}

// Figure11Result reproduces Figure 11: mean QoE under increasing white noise
// applied to a perfect short-term predictor.
type Figure11Result struct {
	NoiseLevels []float64
	Controllers []string
	// Scores[controller][noise index] is the mean QoE score.
	Scores map[string][]float64
	// CI[controller][noise index] is the 95% half-width.
	CI map[string][]float64
}

// Figure11 sweeps the noise level with throughput-prediction discounts off
// (plain MPC rather than RobustMPC; SODA has no discount by design).
func Figure11(scale Scale) (*Figure11Result, error) {
	noise := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0}
	res := &Figure11Result{
		NoiseLevels: noise,
		Controllers: SimControllers,
		Scores:      map[string][]float64{},
		CI:          map[string][]float64{},
	}
	// A mixed random subset across the three datasets (§6.1.4 uses a random
	// 10k-session subset of the full corpus).
	var sessions []*trace.Trace
	ladder := video.Mobile()
	for _, spec := range datasetSpecs()[1:] {
		ds, err := tracegen.Generate(spec.profile, scale.NoiseSessions, scale.SessionSeconds, scale.Seed+31)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, ds.Sessions...)
	}

	for _, name := range res.Controllers {
		if _, err := abr.New(name, ladder); err != nil {
			return nil, err
		}
		scores := make([]float64, len(noise))
		cis := make([]float64, len(noise))
		for ni, lvl := range noise {
			level := lvl
			var counter uint64
			factory := func() (abr.Controller, predictor.Predictor) {
				c, _ := abr.New(name, ladder)
				counter++
				var p predictor.Predictor
				// The perfect predictor needs the session trace; it is bound
				// per session inside the dataset runner via the closure
				// below, so build it lazily through a shim.
				p = &perfectShim{noise: level, seed: scale.Seed + counter}
				return c, p
			}
			metrics, err := runNoisyDataset(sessions, factory, sim.Config{
				Ladder:         ladder,
				BufferCap:      units.Seconds(20),
				SessionSeconds: scale.SessionSeconds,
			})
			if err != nil {
				return nil, fmt.Errorf("figure11: %s noise %v: %w", name, lvl, err)
			}
			agg := qoe.Aggregated(name, metrics)
			scores[ni] = agg.Score.Mean
			cis[ni] = agg.Score.CI95
		}
		res.Scores[name] = scores
		res.CI[name] = cis
	}
	return res, nil
}

// perfectShim is a Perfect+Noise predictor whose trace is bound when the
// session starts (the simulator Reset()s predictors before use; the runner
// below injects the trace beforehand).
type perfectShim struct {
	noise float64
	seed  uint64
	inner predictor.Predictor
}

func (p *perfectShim) bind(tr *trace.Trace) {
	p.inner = predictor.NewNoisy(&predictor.Perfect{Trace: tr}, p.noise, p.seed)
}

// Observe implements predictor.Predictor.
func (p *perfectShim) Observe(s predictor.Sample) {
	if p.inner != nil {
		p.inner.Observe(s)
	}
}

// Predict implements predictor.Predictor.
func (p *perfectShim) Predict(now, horizon units.Seconds) units.Mbps {
	if p.inner == nil {
		return 0
	}
	return p.inner.Predict(now, horizon)
}

// Reset implements predictor.Predictor.
func (p *perfectShim) Reset() {
	if p.inner != nil {
		p.inner.Reset()
	}
}

// runNoisyDataset is sim.RunDataset with per-session trace binding for the
// perfect predictor (the oracle must see the session it predicts).
func runNoisyDataset(sessions []*trace.Trace, factory sim.SessionFactory, base sim.Config) ([]qoe.Metrics, error) {
	out := make([]qoe.Metrics, len(sessions))
	for i, tr := range sessions {
		c, p := factory()
		if shim, ok := p.(*perfectShim); ok {
			shim.bind(tr)
		}
		cfg := base
		cfg.Controller = c
		cfg.Predictor = p
		res, err := sim.Run(tr, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = res.Metrics
	}
	return out, nil
}

// Render formats the Figure 11 report.
func (r *Figure11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: mean QoE vs white-noise level on a perfect predictor\n  noise:   ")
	for _, n := range r.NoiseLevels {
		fmt.Fprintf(&b, " %6.0f%%", 100*n)
	}
	b.WriteString("\n")
	for _, name := range r.Controllers {
		fmt.Fprintf(&b, "  %-8s", name)
		for _, s := range r.Scores[name] {
			fmt.Fprintf(&b, " %7.3f", s)
		}
		b.WriteString("\n")
	}
	series := make([]textplot.Series, 0, len(r.Controllers))
	for _, name := range r.Controllers {
		series = append(series, textplot.Series{Name: name, X: r.NoiseLevels, Y: r.Scores[name]})
	}
	b.WriteString(textplot.Lines("", series, 54, 12))
	return b.String()
}

// Figure12Result reproduces Figure 12: the prototype evaluation over real
// TCP with trace shaping and SSIM utility.
type Figure12Result struct {
	Controllers []string
	Aggregates  map[string]qoe.Aggregate
	TimeScale   float64
}

// Figure12 runs every controller through the loopback TCP prototype on a
// low-bandwidth session set (the paper selects Puffer sessions with mean
// throughput below 2 Mb/s to stress the 2 Mb/s-topped prototype ladder).
func Figure12(scale Scale) (*Figure12Result, error) {
	// A challenged-network profile: mean 1.1 Mb/s around the prototype
	// ladder's middle rungs.
	profile := tracegen.Profile{
		Name:           "prototype-lowbw",
		TargetMeanMbps: 1.1,
		TargetRSD:      0.65,
		States:         []tracegen.State{{RelMean: 1.6}, {RelMean: 0.9}, {RelMean: 0.4}},
		Transition: [][]float64{
			{0.985, 0.012, 0.003},
			{0.015, 0.970, 0.015},
			{0.008, 0.022, 0.970},
		},
		StepSeconds: 1,
		AR:          0.9,
	}
	ladder := video.Prototype()
	sessionLength := ladder.SegmentSeconds.Scale(float64(scale.PrototypeSegments))
	ds, err := tracegen.Generate(profile, scale.PrototypeSessions, sessionLength+30, scale.Seed+55)
	if err != nil {
		return nil, err
	}
	const timeScale = 30
	res := &Figure12Result{Controllers: PrototypeControllers, Aggregates: map[string]qoe.Aggregate{}, TimeScale: timeScale}

	for _, name := range res.Controllers {
		var metrics []qoe.Metrics
		for _, tr := range ds.Sessions {
			ctrl, err := abr.New(name, ladder)
			if err != nil {
				return nil, err
			}
			var p predictor.Predictor
			if name == "fugu" {
				p = predictor.NewEmpiricalQuantile(16)
			} else {
				p = predictor.NewSafeEMA()
			}
			out, err := player.RunSession(player.SessionSpec{
				Trace:         tr,
				Ladder:        ladder,
				TotalSegments: scale.PrototypeSegments,
				TimeScale:     timeScale,
				Player: player.Config{
					Controller: ctrl,
					Predictor:  p,
					BufferCap:  units.Seconds(15), // Puffer's cap (§6.2)
				},
			})
			if err != nil {
				return nil, fmt.Errorf("figure12: %s: %w", name, err)
			}
			metrics = append(metrics, out.Metrics)
		}
		res.Aggregates[name] = qoe.Aggregated(name, metrics)
	}
	return res, nil
}

// Best returns the controller with the highest mean QoE.
func (r *Figure12Result) Best() string {
	best, bestScore := "", -1e18
	for _, name := range sortedKeys(r.Aggregates) {
		if agg := r.Aggregates[name]; agg.Score.Mean > bestScore {
			best, bestScore = name, agg.Score.Mean
		}
	}
	return best
}

// Render formats the Figure 12 report.
func (r *Figure12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: TCP prototype evaluation (SSIM utility, 15 s buffer, %gx time compression)\n", r.TimeScale)
	for _, name := range r.Controllers {
		fmt.Fprintf(&b, "  %s\n", r.Aggregates[name].String())
	}
	return b.String()
}

// Figure13Result reproduces Figure 13: the production A/B experiment.
type Figure13Result struct {
	Reports []prod.FamilyReport
}

// Figure13 runs the device-family A/B experiment.
func Figure13(scale Scale) (*Figure13Result, error) {
	cfg := prod.DefaultConfig()
	cfg.SessionsPerArm = scale.ProdSessionsPerArm
	cfg.SessionLength = scale.SessionSeconds
	cfg.Seed = scale.Seed
	if scale.Telemetry != nil {
		cfg.Telemetry = scale.Telemetry.Registry
	}
	reports, err := prod.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &Figure13Result{Reports: reports}, nil
}

// Render formats the Figure 13 report.
func (r *Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: production A/B — SODA vs fine-tuned baseline (relative change)\n")
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "  %s\n", rep.String())
	}
	labels := make([]string, 0, len(r.Reports))
	deltas := make([]float64, 0, len(r.Reports))
	for _, rep := range r.Reports {
		labels = append(labels, rep.Family)
		deltas = append(deltas, 100*rep.SwitchDelta)
	}
	b.WriteString(textplot.Bars("  switching delta (%)", labels, deltas, 30))
	return b.String()
}
