package experiments

import (
	"fmt"
	"strings"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// AblationPoint is one configuration's aggregate outcome.
type AblationPoint struct {
	Label     string
	Aggregate qoe.Aggregate
}

// AblationResult is a one-dimensional design-choice sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// Render formats the sweep.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", r.Name)
	for _, p := range r.Points {
		// The aggregate string already leads with the point's label.
		fmt.Fprintf(&b, "  %s\n", p.Aggregate.String())
	}
	return b.String()
}

// runSODAVariant simulates a SODA config over a 4G dataset (the most
// differentiating conditions) and aggregates.
func runSODAVariant(label string, cfg core.Config, scale Scale, simCfg sim.Config) (AblationPoint, error) {
	ds, err := tracegen.Generate(tracegen.FourG(), scale.SessionsPerDataset, scale.SessionSeconds, scale.Seed+101)
	if err != nil {
		return AblationPoint{}, err
	}
	ladder := video.Mobile()
	policy, err := core.NewPolicy(cfg, ladder)
	if err != nil {
		return AblationPoint{}, err
	}
	factory := func() (abr.Controller, predictor.Predictor) {
		return policy.New(), predictor.NewEMA(units.Seconds(4))
	}
	base := simCfg
	base.Ladder = ladder
	if base.BufferCap == 0 {
		base.BufferCap = 20
	}
	base.SessionSeconds = scale.SessionSeconds
	metrics, err := sim.RunDataset(ds.Sessions, factory, base)
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{Label: label, Aggregate: qoe.Aggregated(label, metrics)}, nil
}

// AblationTargetFraction sweeps the buffer-target placement x̄/xmax — the
// central design knob of SODA's buffer-stability objective.
func AblationTargetFraction(scale Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "buffer target fraction (x̄/xmax)"}
	for _, tf := range []float64{0.3, 0.45, 0.6, 0.75, 0.9} {
		cfg := core.DefaultConfig()
		cfg.TargetFraction = tf
		p, err := runSODAVariant(fmt.Sprintf("target=%.2f", tf), cfg, scale, sim.Config{})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationEpsilon sweeps the overfull-buffer roll-off ε of b(x).
func AblationEpsilon(scale Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "buffer-cost roll-off epsilon"}
	for _, eps := range []float64{0.02, 0.1, 0.2, 0.5, 0.9} {
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		p, err := runSODAVariant(fmt.Sprintf("eps=%.2f", eps), cfg, scale, sim.Config{})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationSwitchingWeight sweeps gamma, the smoothness knob, exposing the
// utility/switching trade-off the paper's objective is built around.
func AblationSwitchingWeight(scale Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "switching weight gamma"}
	for _, gamma := range []float64{0.5, 2, 5, 12, 30} {
		cfg := core.DefaultConfig()
		cfg.Gamma = gamma
		p, err := runSODAVariant(fmt.Sprintf("gamma=%.1f", gamma), cfg, scale, sim.Config{})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationHorizonQoE sweeps the planning horizon K, the Theorem 4.1 knob, on
// realized QoE (the micro-benchmarks cover its computational cost).
func AblationHorizonQoE(scale Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "prediction horizon K"}
	for _, k := range []int{1, 2, 3, 5} {
		cfg := core.DefaultConfig()
		cfg.Horizon = k
		p, err := runSODAVariant(fmt.Sprintf("K=%d", k), cfg, scale, sim.Config{})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblationAbandonment compares sessions with and without dash.js-style
// segment abandonment, the player-side mechanism that bounds fade-onset
// stalls (an extension beyond the paper's player model).
func AblationAbandonment(scale Scale) (*AblationResult, error) {
	res := &AblationResult{Name: "segment abandonment (player extension)"}
	for _, abandon := range []bool{false, true} {
		cfg := core.DefaultConfig()
		label := "off"
		if abandon {
			label = "on"
		}
		p, err := runSODAVariant("abandon="+label, cfg, scale, sim.Config{Abandonment: abandon})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// UltraLowLatency reproduces the §8 future-work study: SODA and Dynamic
// under shrinking live budgets (buffer cap = live-edge offset), from
// traditional live (20 s) down to ultra-low latency (4 s).
type UltraLowLatencyResult struct {
	Budgets []float64
	// PerController[name][i] aggregates sessions at Budgets[i].
	PerController map[string][]qoe.Aggregate
}

// UltraLowLatency runs the latency-budget sweep on the 4G dataset.
func UltraLowLatency(scale Scale) (*UltraLowLatencyResult, error) {
	budgets := []float64{4, 6, 10, 20}
	ds, err := tracegen.Generate(tracegen.FourG(), scale.SessionsPerDataset, scale.SessionSeconds, scale.Seed+77)
	if err != nil {
		return nil, err
	}
	ladder := video.Mobile()
	res := &UltraLowLatencyResult{Budgets: budgets, PerController: map[string][]qoe.Aggregate{}}
	for _, name := range []string{"soda", "dynamic"} {
		if _, err := abr.New(name, ladder); err != nil {
			return nil, err
		}
		for _, budget := range budgets {
			factory := func() (abr.Controller, predictor.Predictor) {
				c, _ := abr.New(name, ladder)
				return c, predictor.NewEMA(units.Seconds(4))
			}
			metrics, err := sim.RunDataset(ds.Sessions, factory, sim.Config{
				Ladder:                ladder,
				BufferCap:             units.Seconds(budget),
				Live:                  true,
				LiveEdgeOffsetSeconds: units.Seconds(budget),
				SessionSeconds:        scale.SessionSeconds,
			})
			if err != nil {
				return nil, err
			}
			res.PerController[name] = append(res.PerController[name], qoe.Aggregated(name, metrics))
		}
	}
	return res, nil
}

// Render formats the latency sweep.
func (r *UltraLowLatencyResult) Render() string {
	var b strings.Builder
	b.WriteString("Ultra-low-latency study (§8): QoE vs live budget (buffer cap = edge offset)\n")
	for _, name := range sortedKeys(r.PerController) {
		aggs := r.PerController[name]
		fmt.Fprintf(&b, "  %s:\n", name)
		for i, agg := range aggs {
			fmt.Fprintf(&b, "    %4.0fs budget: %s\n", r.Budgets[i], agg.String())
		}
	}
	return b.String()
}

// AblationPredictor compares SODA under the predictor choices that appear in
// the paper: the dash.js EMA (simulations), the dash.js-style safe EMA, the
// production sliding window (§6.3), the MPC-traditional harmonic mean, and a
// plain moving average (Fig. 7's other profiled predictor).
func AblationPredictor(scale Scale) (*AblationResult, error) {
	ds, err := tracegen.Generate(tracegen.FourG(), scale.SessionsPerDataset, scale.SessionSeconds, scale.Seed+202)
	if err != nil {
		return nil, err
	}
	ladder := video.Mobile()
	res := &AblationResult{Name: "throughput predictor choice (SODA)"}
	preds := []struct {
		label string
		make  func() predictor.Predictor
	}{
		{"ema(4s)", func() predictor.Predictor { return predictor.NewEMA(units.Seconds(4)) }},
		{"safe-ema", func() predictor.Predictor { return predictor.NewSafeEMA() }},
		{"sliding(12s)", func() predictor.Predictor { return predictor.NewSlidingWindow(units.Seconds(12)) }},
		{"harmonic(5)", func() predictor.Predictor { return predictor.NewHarmonicMean(5) }},
		{"ma(4)", func() predictor.Predictor { return predictor.NewMovingAverage(4) }},
	}
	policy, err := core.NewPolicy(core.DefaultConfig(), ladder)
	if err != nil {
		return nil, err
	}
	for _, p := range preds {
		make := p.make
		factory := func() (abr.Controller, predictor.Predictor) {
			return policy.New(), make()
		}
		metrics, err := sim.RunDataset(ds.Sessions, factory, sim.Config{
			Ladder:         ladder,
			BufferCap:      units.Seconds(20),
			SessionSeconds: scale.SessionSeconds,
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AblationPoint{Label: p.label, Aggregate: qoe.Aggregated(p.label, metrics)})
	}
	return res, nil
}
