// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver is deterministic for a given (Scale,
// seed), returns a structured result, and can render itself as a text
// report; the root-level benchmarks and cmd/soda-experiments are thin
// wrappers around these drivers.
//
// Paper-scale runs (230k sessions, 10^6 solver samples) are impractical in a
// test cycle; Scale controls the reduced defaults and can be multiplied via
// the SODA_EXPERIMENT_SCALE environment variable (e.g. "4" runs 4x more
// sessions everywhere).
package experiments

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"

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

// DefaultScale returns the reduced default workload, honoring the
// SODA_EXPERIMENT_SCALE multiplier.
func DefaultScale() Scale {
	s := Scale{
		SessionsPerDataset: 40,
		SessionSeconds:     units.Seconds(600),
		SolverSamples:      4000,
		NoiseSessions:      30,
		PrototypeSessions:  8,
		PrototypeSegments:  90,
		ProdSessionsPerArm: 30,
		Seed:               20240804, // SIGCOMM '24 presentation date
	}
	if v := os.Getenv("SODA_EXPERIMENT_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			s.SessionsPerDataset = int(float64(s.SessionsPerDataset) * f)
			s.SolverSamples = int(float64(s.SolverSamples) * f)
			s.NoiseSessions = int(float64(s.NoiseSessions) * f)
			s.PrototypeSessions = int(float64(s.PrototypeSessions) * f)
			s.ProdSessionsPerArm = int(float64(s.ProdSessionsPerArm) * f)
		}
	}
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

// sharedCacheEntries sizes the per-bucket fleet solve cache of the Figure 10
// SODA runs — large enough that the quantized states of a dataset bucket
// never evict each other at the default MemoQuantum.
const sharedCacheEntries = 1 << 16

// solveTally sums per-session SODA solver statistics across a dataset run.
// Its hook runs on the sim.RunDataset worker goroutines, hence the lock.
type solveTally struct {
	mu       sync.Mutex
	sessions int
	stats    core.SolveStats
}

func (t *solveTally) hook(_ int, ctrl abr.Controller, _ sim.Result) {
	c, ok := ctrl.(*core.Controller)
	if !ok {
		return
	}
	s := c.SolveStats()
	t.mu.Lock()
	t.sessions++
	t.stats.Add(s)
	t.mu.Unlock()
}

// solvesPerSession is the mean number of CostModel solves one session ran —
// the quantity the shared cache exists to shrink.
func (t *solveTally) solvesPerSession() float64 {
	if t.sessions == 0 {
		return 0
	}
	return float64(t.stats.Solves) / float64(t.sessions)
}

// runSodaOnSessions is runControllerOnSessions for the SODA arm with a
// fleet-wide solve cache attached (nil runs uncached), returning the summed
// per-session solver statistics alongside the metrics. Decisions — and hence
// metrics — are bit-identical to the uncached runControllerOnSessions path;
// the shared-cache conformance contract in internal/abrtest pins this.
func runSodaOnSessions(ladder video.Ladder, sessions []*trace.Trace, sessionLength, bufferCap units.Seconds, cache *core.SolveCache, col *telemetry.Collector) ([]qoe.Metrics, *solveTally, error) {
	cfg := core.DefaultConfig()
	cfg.SharedCache = cache
	policy, err := core.NewPolicy(cfg, ladder)
	if err != nil {
		return nil, nil, err
	}
	tally := &solveTally{}
	factory := func() (abr.Controller, predictor.Predictor) {
		return policy.New(), evalPredictor()
	}
	metrics, err := sim.RunDataset(sessions, factory, sim.Config{
		Ladder:         ladder,
		BufferCap:      bufferCap,
		SessionSeconds: sessionLength,
		OnResult:       tally.hook,
		Telemetry:      col,
	})
	return metrics, tally, err
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
