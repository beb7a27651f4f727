// Package prod simulates the paper's production deployment study (§6.3):
// large-scale A/B experiments on Amazon Prime Video live streams across
// three device families — desktops/laptops (HTML5 browsers), smart TVs and
// set-top boxes — comparing SODA against a fine-tuned production baseline.
//
// Each device family has its own network profile (HTML5 browsers experience
// the most volatility, §6.3), sessions are randomly assigned to the SODA or
// control arm, and the engagement model converts per-session quality into
// viewing durations. The report is the set of relative changes Figure 13
// plots: mean viewing duration, mean bitrate, rebuffering ratio and
// switching rate.
package prod

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/engagement"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	// The control arm ("prod-baseline") is resolved by name from the abr
	// registry, so the implementation must be linked in.
	_ "repro/internal/baseline"
)

// DeviceFamily describes one device population and its network conditions.
type DeviceFamily struct {
	Name    string
	Profile tracegen.Profile
}

// Families returns the three §6.3 device families. The relative volatility
// ordering follows the paper: HTML5 browsers see the most volatile networks,
// set-top boxes (often wired) the most stable, smart TVs in between.
func Families() []DeviceFamily {
	html5 := tracegen.Profile{
		Name:           "html5",
		TargetMeanMbps: 18,
		TargetRSD:      0.95,
		States:         []tracegen.State{{RelMean: 1.7}, {RelMean: 0.9}, {RelMean: 0.3}},
		Transition: [][]float64{
			{0.9880, 0.0100, 0.0020},
			{0.0120, 0.9760, 0.0120},
			{0.0080, 0.0160, 0.9760},
		},
		StepSeconds: 1,
		AR:          0.90,
	}
	smartTV := tracegen.Profile{
		Name:           "smarttv",
		TargetMeanMbps: 22,
		TargetRSD:      0.55,
		States:         []tracegen.State{{RelMean: 1.3}, {RelMean: 0.9}, {RelMean: 0.5}},
		Transition: [][]float64{
			{0.9930, 0.0060, 0.0010},
			{0.0080, 0.9870, 0.0050},
			{0.0050, 0.0110, 0.9840},
		},
		StepSeconds: 1,
		AR:          0.93,
	}
	setTop := tracegen.Profile{
		Name:           "settop",
		TargetMeanMbps: 26,
		TargetRSD:      0.40,
		States:         []tracegen.State{{RelMean: 1.2}, {RelMean: 0.95}, {RelMean: 0.6}},
		Transition: [][]float64{
			{0.9950, 0.0040, 0.0010},
			{0.0060, 0.9900, 0.0040},
			{0.0040, 0.0080, 0.9880},
		},
		StepSeconds: 1,
		AR:          0.95,
	}
	return []DeviceFamily{
		{Name: "html5", Profile: html5},
		{Name: "smarttv", Profile: smartTV},
		{Name: "settop", Profile: setTop},
	}
}

// Config drives one A/B experiment.
type Config struct {
	// SessionsPerArm is the number of sessions per controller arm per family.
	SessionsPerArm int
	// SessionLength is the simulated session length.
	SessionLength units.Seconds
	// StreamLength is the live event length used for viewing durations
	// (sports events routinely span multiple hours, §6.3).
	StreamLength units.Minutes
	// BufferCap is the live buffer bound (20 s in the deployment).
	BufferCap units.Seconds
	// Treatment and Control name the registered controllers for the two
	// arms ("soda" and "prod-baseline" by default).
	Treatment, Control string
	// Seed makes the experiment reproducible.
	Seed uint64
	// Telemetry, when non-nil, receives per-arm gauges (viewing, bitrate,
	// rebuffer/switch rates, sessions) labelled by family and arm as
	// each family completes, so a live A/B divergence is visible on /metrics
	// before the run finishes. Recording happens after the arms ran — it can
	// never perturb the experiment.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the experiment configuration used by the Figure 13
// bench.
func DefaultConfig() Config {
	return Config{
		SessionsPerArm: 40,
		SessionLength:  units.Seconds(600),
		StreamLength:   units.Minutes(150),
		BufferCap:      units.Seconds(20),
		Treatment:      "soda",
		Control:        "prod-baseline",
		Seed:           2024,
	}
}

// ArmStats are the per-arm session aggregates.
type ArmStats struct {
	Controller    string
	Viewing       units.Minutes
	MeanBitrate   units.Mbps
	RebufferRatio float64
	SwitchRate    float64
	Sessions      int
}

// Record publishes the arm aggregates as gauges on reg, labelled by device
// family and arm ("treatment"/"control"). Harnesses call it after the arm
// completed — the pull-based pattern the telemetry purity contract requires.
func (s ArmStats) Record(reg *telemetry.Registry, family, arm string) {
	if reg == nil {
		return
	}
	labels := []telemetry.Label{
		{Key: "family", Value: family},
		{Key: "arm", Value: arm},
		{Key: "controller", Value: s.Controller},
	}
	reg.Gauge("soda_ab_viewing_minutes", "mean viewing duration of the arm",
		telemetry.UMinutes, labels...).Set(float64(s.Viewing))
	reg.Gauge("soda_ab_bitrate_mbps", "mean delivered bitrate of the arm",
		telemetry.UMbps, labels...).Set(float64(s.MeanBitrate))
	reg.Gauge("soda_ab_rebuffer_ratio", "mean rebuffer ratio of the arm",
		telemetry.None, labels...).Set(s.RebufferRatio)
	reg.Gauge("soda_ab_switch_rate", "mean rung-switch rate of the arm",
		telemetry.None, labels...).Set(s.SwitchRate)
	reg.Gauge("soda_ab_sessions", "sessions simulated in the arm",
		telemetry.None, labels...).Set(float64(s.Sessions))
}

// FamilyReport is one device family's A/B outcome: the Figure 13 bars.
type FamilyReport struct {
	Family    string
	Treatment ArmStats
	Control   ArmStats
	// Relative changes, treatment vs control, as fractions (+0.059 = +5.9%).
	ViewingDelta  float64
	BitrateDelta  float64
	RebufferDelta float64
	SwitchDelta   float64
}

// String renders the report row.
func (r FamilyReport) String() string {
	return fmt.Sprintf("%-8s viewing %+6.2f%%  bitrate %+6.2f%%  rebuf %+7.2f%%  switching %+7.2f%%",
		r.Family, 100*r.ViewingDelta, 100*r.BitrateDelta, 100*r.RebufferDelta, 100*r.SwitchDelta)
}

// Run executes the A/B experiment across all device families.
func Run(cfg Config) ([]FamilyReport, error) {
	if cfg.SessionsPerArm <= 0 {
		return nil, fmt.Errorf("prod: non-positive sessions per arm")
	}
	ladder := video.PrimeVideo()
	model := engagement.Default()
	var reports []FamilyReport
	for fi, fam := range Families() {
		ds, err := tracegen.Generate(fam.Profile, cfg.SessionsPerArm, cfg.SessionLength, cfg.Seed+uint64(fi)*1000)
		if err != nil {
			return nil, fmt.Errorf("prod: %s: %w", fam.Name, err)
		}
		// Both arms share the engagement random draws (common random
		// numbers): each session index gets the same uniform variate, so the
		// viewing-duration delta reflects the quality difference rather than
		// sampling noise — the standard variance-reduction device for paired
		// A/B comparisons.
		treat, err := runArm(cfg, cfg.Treatment, ladder, ds, model, cfg.Seed+77)
		if err != nil {
			return nil, fmt.Errorf("prod: %s/%s: %w", fam.Name, cfg.Treatment, err)
		}
		control, err := runArm(cfg, cfg.Control, ladder, ds, model, cfg.Seed+77)
		if err != nil {
			return nil, fmt.Errorf("prod: %s/%s: %w", fam.Name, cfg.Control, err)
		}
		treat.Record(cfg.Telemetry, fam.Name, "treatment")
		control.Record(cfg.Telemetry, fam.Name, "control")
		reports = append(reports, FamilyReport{
			Family:        fam.Name,
			Treatment:     treat,
			Control:       control,
			ViewingDelta:  rel(treat.Viewing, control.Viewing),
			BitrateDelta:  rel(treat.MeanBitrate, control.MeanBitrate),
			RebufferDelta: relRebuffer(treat.RebufferRatio, control.RebufferRatio),
			SwitchDelta:   rel(treat.SwitchRate, control.SwitchRate),
		})
	}
	return reports, nil
}

// relRebuffer treats two essentially-rebuffer-free arms as unchanged: a
// ratio of two numbers in the 1e-5 range is noise, not a finding.
func relRebuffer(treat, control float64) float64 {
	const negligible = 5e-4
	if treat < negligible && control < negligible {
		return 0
	}
	return rel(treat, control)
}

func rel[T ~float64](treat, control T) float64 {
	if control == 0 {
		if treat == 0 {
			return 0
		}
		return 1
	}
	return float64((treat - control) / control)
}

// sharedCacheEntries sizes the fleet-wide solve cache each SODA arm's
// sessions share (one cache per family per arm, as a deployment would shard
// per ladder/config). Decisions are bit-identical with or without it, so the
// A/B outcome is unaffected; it only changes how much solver work the arm
// performs.
const sharedCacheEntries = 1 << 15

// armFactory resolves the arm's controller once and returns a constructor
// for its sessions. The "soda" arm seats every session on one policy: the
// registry's "soda" configuration plus a solve cache the arm's sessions
// share, so it decides like the registry's controller, and a session costs
// one allocation, its controller. Any other controller comes from the abr
// registry.
func armFactory(controller string, ladder video.Ladder) (func() abr.Controller, error) {
	if controller != "soda" {
		factory, err := abr.Lookup(controller)
		if err != nil {
			return nil, err
		}
		return func() abr.Controller { return factory(ladder) }, nil
	}
	cfg := core.DefaultConfig()
	cfg.SharedCache = core.NewSolveCache(sharedCacheEntries)
	policy, err := core.NewPolicy(cfg, ladder)
	if err != nil {
		return nil, err
	}
	return func() abr.Controller { return policy.New() }, nil
}

// runArm simulates every session of the dataset under one controller on
// sim.RunMany and aggregates the arm statistics in session order. The
// engagement draw is deterministic per (seed, session).
func runArm(cfg Config, controller string, ladder video.Ladder, ds *tracegen.Dataset, model engagement.Model, seed uint64) (ArmStats, error) {
	newCtrl, err := armFactory(controller, ladder)
	if err != nil {
		return ArmStats{}, err
	}
	results, err := sim.RunMany(ds.Sessions, func() (abr.Controller, predictor.Predictor) {
		return newCtrl(), predictor.NewSlidingWindow(units.Seconds(12))
	}, sim.Config{Ladder: ladder, BufferCap: cfg.BufferCap, SessionSeconds: cfg.SessionLength})
	if err != nil {
		return ArmStats{}, err
	}
	stats := ArmStats{Controller: controller, Sessions: len(results)}
	for i, res := range results {
		m := res.Metrics
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		stats.Viewing += model.SampleViewingMinutes(m.SwitchRate, m.RebufferRatio, cfg.StreamLength, rng)
		stats.MeanBitrate += meanBitrate(ladder, res.Rungs)
		stats.RebufferRatio += m.RebufferRatio
		stats.SwitchRate += m.SwitchRate
	}
	f := float64(len(results))
	stats.Viewing = units.Minutes(float64(stats.Viewing) / f)
	stats.MeanBitrate = units.Mbps(float64(stats.MeanBitrate) / f)
	stats.RebufferRatio /= f
	stats.SwitchRate /= f
	return stats, nil
}

func meanBitrate(ladder video.Ladder, rungs []int) units.Mbps {
	if len(rungs) == 0 {
		return 0
	}
	var sum units.Mbps
	for _, r := range rungs {
		sum += ladder.Mbps(r)
	}
	return units.Mbps(float64(sum) / float64(len(rungs)))
}
