// Package engagement models viewer behaviour as a function of streaming
// quality, the mechanism behind two of the paper's headline artifacts:
//
//   - Figure 1: viewing percentage is negatively correlated with bitrate
//     switching rate — users watch less than 10% of a stream when the
//     switching rate exceeds 20%;
//   - Figure 13: SODA's smoothness gains translate into longer average
//     viewing durations (up to +5.91%) in the production A/B test.
//
// The model is a constant-hazard abandonment process: during playback a
// viewer abandons at a per-minute rate that grows with the session's
// switching rate and rebuffering ratio. The coefficients are calibrated to
// the anchors the paper cites:
//
//   - at a 20% switching rate the expected viewing fraction of a multi-hour
//     stream falls below 10% (Fig. 1);
//   - a 1 percentage-point increase in rebuffering ratio costs about three
//     minutes of viewing (Dobrian et al., cited as [7]).
package engagement

import (
	"math"
	"math/rand/v2"

	"repro/internal/units"
)

// Model is a quality-dependent abandonment hazard.
type Model struct {
	// BaseRatePerMin is the quality-independent abandonment hazard.
	BaseRatePerMin float64
	// SwitchCoeff scales the per-minute hazard per unit switching rate.
	SwitchCoeff float64
	// RebufferCoeff scales the per-minute hazard per unit rebuffering ratio.
	RebufferCoeff float64
}

// Default returns the calibrated model (see the package comment for the
// calibration anchors).
func Default() Model {
	return Model{
		BaseRatePerMin: 0.010,
		SwitchCoeff:    0.90,
		RebufferCoeff:  0.25,
	}
}

// HazardPerMin returns the abandonment rate per minute for a session with
// the given quality metrics.
func (m Model) HazardPerMin(switchRate, rebufferRatio float64) float64 {
	h := m.BaseRatePerMin + m.SwitchCoeff*switchRate + m.RebufferCoeff*rebufferRatio
	if h < 1e-6 {
		h = 1e-6
	}
	return h
}

// ExpectedViewingMinutes returns the expected watch time of a stream of the
// given length under the hazard: E[min(T, L)] with T ~ Exp(h).
//
// The switching rate and rebuffering ratio are dimensionless session
// statistics; only the durations carry a unit.
func (m Model) ExpectedViewingMinutes(switchRate, rebufferRatio float64, stream units.Minutes) units.Minutes {
	h := m.HazardPerMin(switchRate, rebufferRatio)
	return units.Minutes((1 - math.Exp(-h*float64(stream))) / h)
}

// SampleViewingMinutes draws one stochastic viewing duration for a session,
// used by the production A/B simulator.
func (m Model) SampleViewingMinutes(switchRate, rebufferRatio float64, stream units.Minutes, rng *rand.Rand) units.Minutes {
	h := m.HazardPerMin(switchRate, rebufferRatio)
	t := units.Minutes(rng.ExpFloat64() / h)
	if t > stream {
		return stream
	}
	return t
}
