// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver returns a structured result and can
// render itself as a text report; cmd/soda-experiments is the one front end
// that runs them and writes results/. Every report except Figure 12 and
// Table 1, which run real TCP on loopback, is a pure function of the Scale
// and its seed.
//
// Paper-scale runs (230k sessions, 10^6 solver samples) are impractical in a
// test cycle; DefaultScale holds the reduced defaults and Scale.Scaled
// multiplies them (soda-experiments -scale 4 runs 4x more sessions
// everywhere).
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	// Controller registrations.
	_ "repro/internal/baseline"
)

// Scale sets the workload sizes of the experiment drivers.
type Scale struct {
	// SessionsPerDataset is the session count per dataset bucket (Fig. 10).
	SessionsPerDataset int
	// SessionSeconds is the per-session stream length (the paper uses
	// 10-minute sessions).
	SessionSeconds units.Seconds
	// SolverSamples is the per-configuration sample count for the Fig. 8
	// solver-mismatch study (10^6 in the paper).
	SolverSamples int
	// NoiseSessions is the session count per noise level (Fig. 11).
	NoiseSessions int
	// PrototypeSessions is the session count per controller in the TCP
	// prototype evaluation (Fig. 12).
	PrototypeSessions int
	// PrototypeSegments is the per-session segment count for Fig. 12.
	PrototypeSegments int
	// ProdSessionsPerArm is the per-arm session count for Fig. 13.
	ProdSessionsPerArm int
	// Seed drives all generators.
	Seed uint64
	// Telemetry, when non-nil, collects decision events and solver/QoE
	// aggregates from the SODA arms of the drivers (cmd/soda-experiments
	// attaches one for its -telemetry flag). Recording never changes driver
	// output — sessions are bit-identical with or without it.
	Telemetry *telemetry.Collector
}

// DefaultScale returns the reduced default workload.
func DefaultScale() Scale {
	return Scale{
		SessionsPerDataset: 40,
		SessionSeconds:     units.Seconds(600),
		SolverSamples:      4000,
		NoiseSessions:      30,
		PrototypeSessions:  8,
		PrototypeSegments:  90,
		ProdSessionsPerArm: 30,
		Seed:               20240804, // SIGCOMM '24 presentation date
	}
}

// Scaled returns s with its session and sample counts multiplied by f. A
// factor of 0 or less returns s unchanged.
func (s Scale) Scaled(f float64) Scale {
	if f <= 0 {
		return s
	}
	s.SessionsPerDataset = int(float64(s.SessionsPerDataset) * f)
	s.SolverSamples = int(float64(s.SolverSamples) * f)
	s.NoiseSessions = int(float64(s.NoiseSessions) * f)
	s.PrototypeSessions = int(float64(s.PrototypeSessions) * f)
	s.ProdSessionsPerArm = int(float64(s.ProdSessionsPerArm) * f)
	return s
}

// SimControllers are the controllers of the numerical simulations (§6.1.2).
var SimControllers = []string{"soda", "hyb", "bola", "dynamic", "mpc"}

// PrototypeControllers adds the learning-based baselines of the prototype
// evaluation (§6.2.2).
var PrototypeControllers = []string{"soda", "hyb", "bola", "dynamic", "mpc", "fugu", "rl"}

// evalPredictor returns the standard predictor of the simulation harness:
// the plain EMA that dash.js ships as its default and the paper adopts for
// the numerical simulations (§6.1.1).
func evalPredictor() predictor.Predictor { return predictor.NewEMA(units.Seconds(4)) }

// runControllerOnSessions simulates every session under a named controller
// and returns the per-session metrics.
func runControllerOnSessions(name string, ladder video.Ladder, sessions []*trace.Trace, sessionLength, bufferCap units.Seconds) ([]qoe.Metrics, error) {
	if _, err := abr.New(name, ladder); err != nil {
		return nil, err
	}
	factory := func() (abr.Controller, predictor.Predictor) {
		c, _ := abr.New(name, ladder)
		return c, evalPredictor()
	}
	return sim.RunDataset(sessions, factory, sim.Config{
		Ladder:         ladder,
		BufferCap:      bufferCap,
		SessionSeconds: sessionLength,
	})
}

// runSodaOnSessions is runControllerOnSessions for the SODA arm, with every
// session seated on one policy and decision events going to col when it is
// non-nil. Decisions, and hence metrics, are bit-identical to the registry's
// "soda" controller.
func runSodaOnSessions(ladder video.Ladder, sessions []*trace.Trace, sessionLength, bufferCap units.Seconds, col *telemetry.Collector) ([]qoe.Metrics, error) {
	policy, err := core.NewPolicy(core.DefaultConfig(), ladder)
	if err != nil {
		return nil, err
	}
	factory := func() (abr.Controller, predictor.Predictor) {
		return policy.New(), evalPredictor()
	}
	return sim.RunDataset(sessions, factory, sim.Config{
		Ladder:         ladder,
		BufferCap:      bufferCap,
		SessionSeconds: sessionLength,
		Telemetry:      col,
	})
}

// datasetSpec pairs a generated dataset with the ladder the paper uses on it.
type datasetSpec struct {
	name    string
	profile tracegen.Profile
	ladder  video.Ladder
}

func datasetSpecs() []datasetSpec {
	return []datasetSpec{
		{"puffer", tracegen.Puffer(), video.YouTube4K()},
		{"5g", tracegen.FiveG(), video.Mobile()},
		{"4g", tracegen.FourG(), video.Mobile()},
	}
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// sortedKeys returns m's keys in ascending order. Every map iteration whose
// effects are observable (report text, tie-breaking) must go through this so
// runs are reproducible; the detrange analyzer enforces it.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
