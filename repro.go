// Package repro is a from-scratch Go reproduction of "SODA: An Adaptive
// Bitrate Controller for Consistent High-Quality Video Streaming"
// (SIGCOMM 2024).
//
// The package is a thin facade over the internal implementation, exposing
// the pieces a downstream user needs:
//
//   - NewController builds SODA or any baseline ABR controller by name;
//   - Simulate runs a streaming session over a bandwidth trace in the
//     Sabre-class simulator;
//   - GenerateDataset synthesizes the calibrated network datasets;
//   - StreamOverTCP runs the loopback TCP prototype (real transport, shaped
//     by a trace).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record. cmd/soda-experiments regenerates every table
// and figure of the paper's evaluation into results/.
package repro

import (
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/player"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"

	// Register every controller.
	_ "repro/internal/baseline"
)

// Re-exported core types, so example programs and downstream users can work
// entirely through this package.
type (
	// Controller is an ABR controller (SODA or a baseline).
	Controller = abr.Controller
	// Ladder is a bitrate ladder.
	Ladder = video.Ladder
	// Trace is a piecewise-constant bandwidth trace.
	Trace = trace.Trace
	// Sample is one piecewise-constant span of a Trace.
	Sample = trace.Sample
	// Metrics are per-session QoE metrics.
	Metrics = qoe.Metrics
	// SODAConfig parameterizes the SODA controller.
	SODAConfig = core.Config
	// SolveCache is the sharded cross-session solve cache that any number
	// of SODA controllers may share via SODAConfig.SharedCache.
	SolveCache = core.SolveCache
	// CacheStats reports a SolveCache's hit/conflict/eviction counters.
	CacheStats = core.CacheStats
	// DecisionTables is a set of compiled decision tables that any number
	// of SODA controllers may share via SODAConfig.DecisionTable.
	DecisionTables = core.DecisionTables
	// TableInfo describes one compiled decision table's geometry.
	TableInfo = core.TableInfo
	// TableStats reports a DecisionTables set's compile counters.
	TableStats = core.TableStats
	// SimulationConfig parameterizes a simulated session.
	SimulationConfig = sim.Config
	// SimulationResult is a simulated session's outcome.
	SimulationResult = sim.Result
	// Predictor forecasts throughput.
	Predictor = predictor.Predictor
	// DatasetProfile describes a synthetic network dataset.
	DatasetProfile = tracegen.Profile
	// Seconds is a duration in seconds.
	Seconds = units.Seconds
	// Mbps is a throughput in megabits per second.
	Mbps = units.Mbps
	// Megabits is a data size in megabits.
	Megabits = units.Megabits
)

// Ladders used throughout the paper's evaluation.
var (
	LadderYouTube4K = video.YouTube4K
	LadderMobile    = video.Mobile
	LadderPrototype = video.Prototype
	LadderPrime     = video.PrimeVideo
)

// Dataset profiles calibrated to the paper's Figure 9.
var (
	ProfilePuffer = tracegen.Puffer
	Profile5G     = tracegen.FiveG
	Profile4G     = tracegen.FourG
)

// DefaultSODAConfig returns the tuned SODA configuration.
func DefaultSODAConfig() SODAConfig { return core.DefaultConfig() }

// NewSODA builds a SODA controller with the given configuration.
func NewSODA(cfg SODAConfig, ladder Ladder) Controller { return core.New(cfg, ladder) }

// NewSolveCache builds a shared solve cache with the given entry capacity
// (see DESIGN.md §5b and the README's sizing notes). Decisions are
// bit-identical with or without one.
func NewSolveCache(capacity int) *SolveCache { return core.NewSolveCache(capacity) }

// NewSolveCacheSharded is NewSolveCache with an explicit shard count
// (default: GOMAXPROCS rounded up to a power of two).
func NewSolveCacheSharded(capacity, shards int) *SolveCache {
	return core.NewSolveCacheSharded(capacity, shards)
}

// NewDecisionTables builds an empty compiled decision-table set (see
// DESIGN.md §5c). Decisions are bit-identical with or without one.
func NewDecisionTables() *DecisionTables { return core.NewDecisionTables() }

// NewDecisionTablesSized is NewDecisionTables with an explicit bound on the
// number of distinct tables compiled before new identities become
// fallback-only stubs.
func NewDecisionTablesSized(maxTables int) *DecisionTables {
	return core.NewDecisionTablesSized(maxTables)
}

// NewController builds any registered controller by name: "soda", "bola",
// "dynamic", "hyb", "mpc", "robustmpc", "fugu", "rl" or "prod-baseline".
func NewController(name string, ladder Ladder) (Controller, error) { return abr.New(name, ladder) }

// Controllers lists the registered controller names.
func Controllers() []string { return abr.Names() }

// NewEMAPredictor returns the dash.js-default EMA throughput predictor.
func NewEMAPredictor(halfLife Seconds) Predictor { return predictor.NewEMA(halfLife) }

// NewSafeEMAPredictor returns the pessimistic fast/slow EMA predictor.
func NewSafeEMAPredictor() Predictor { return predictor.NewSafeEMA() }

// NewSlidingWindowPredictor returns the production sliding-window predictor.
func NewSlidingWindowPredictor(window Seconds) Predictor {
	return predictor.NewSlidingWindow(window)
}

// Simulate runs one session over the trace.
func Simulate(tr *Trace, cfg SimulationConfig) (SimulationResult, error) { return sim.Run(tr, cfg) }

// GenerateDataset synthesizes sessions from a calibrated profile.
func GenerateDataset(p DatasetProfile, sessions int, sessionLength Seconds, seed uint64) (*tracegen.Dataset, error) {
	return tracegen.Generate(p, sessions, sessionLength, seed)
}

// ConstantTrace returns a fixed-bandwidth trace.
func ConstantTrace(mbps, seconds float64) *Trace {
	return trace.Constant(units.Mbps(mbps), units.Seconds(seconds))
}

// NewTrace builds a trace from samples.
func NewTrace(samples []Sample) *Trace { return trace.New(samples) }

// TCPSessionConfig configures StreamOverTCP.
type TCPSessionConfig struct {
	// Controller picks bitrates; Predictor forecasts throughput.
	Controller Controller
	Predictor  Predictor
	// Ladder and TotalSegments define the stream.
	Ladder        Ladder
	TotalSegments int
	// BufferCap is the playback buffer bound.
	BufferCap Seconds
	// TimeScale compresses stream time (>= 1); 1 plays in real time.
	TimeScale float64
	// DialTimeout bounds connection setup and each fetch.
	DialTimeout time.Duration
}

// StreamOverTCP plays a session through the loopback TCP prototype, shaping
// delivery with the trace.
func StreamOverTCP(tr *Trace, cfg TCPSessionConfig) (Metrics, []int, error) {
	res, err := player.RunSession(player.SessionSpec{
		Trace:         tr,
		Ladder:        cfg.Ladder,
		TotalSegments: cfg.TotalSegments,
		TimeScale:     cfg.TimeScale,
		Player: player.Config{
			Controller:  cfg.Controller,
			Predictor:   cfg.Predictor,
			BufferCap:   cfg.BufferCap,
			DialTimeout: cfg.DialTimeout,
		},
	})
	if err != nil {
		return Metrics{}, nil, err
	}
	return res.Metrics, res.Rungs, nil
}
