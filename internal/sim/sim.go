// Package sim is the segment-level ABR player simulator — the from-scratch
// Go equivalent of the Sabre simulator the paper's numerical evaluation is
// built on (§6.1: "a highly optimized ABR simulator derived from Sabre",
// whose accuracy was validated against dash.js).
//
// The simulator advances a stream clock while downloading segments over a
// bandwidth trace, draining the playback buffer during downloads, charging
// rebuffering when the buffer empties, enforcing the buffer cap (20 s for the
// paper's live configuration) by idling, and feeding measured throughput back
// into the session's predictor. Startup delay (before the first frame) is
// tracked separately from rebuffering, as in Sabre. Player holds the rules.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// Config describes one simulated streaming session.
type Config struct {
	// Ladder is the bitrate ladder (with its segment duration).
	Ladder video.Ladder
	// Sizes produces per-segment encoded sizes; nil means CBR.
	Sizes video.SizeModel
	// BufferCap is the maximum buffer (e.g. 20 s for live).
	BufferCap units.Seconds
	// StartupSegments is how many segments must be buffered before playback
	// starts; at least 1.
	StartupSegments int
	// LatencySeconds is the per-request latency added to every download.
	LatencySeconds units.Seconds
	// Live enables live-edge segment availability: segment i only becomes
	// downloadable at stream time i*L - LiveEdgeOffsetSeconds, so the player
	// can never run further ahead of the broadcast than the offset. With the
	// paper's traditional-live setting the offset equals the buffer cap
	// (~20 s) and the cap binds first; ultra-low-latency configurations (§8)
	// shrink the offset to a few seconds.
	Live bool
	// LiveEdgeOffsetSeconds is how far behind the live edge playback starts;
	// 0 defaults to BufferCap.
	LiveEdgeOffsetSeconds units.Seconds
	// Abandonment enables dash.js-style segment abandonment: when an
	// in-flight download is going to outlast the remaining buffer, the
	// player aborts it once the buffer runs dry and refetches the segment at
	// the lowest rung. This bounds the damage of a mid-download throughput
	// collapse (one oversized segment can otherwise eat a whole live buffer).
	Abandonment bool
	// SessionSeconds is the stream length; 0 uses the trace duration.
	SessionSeconds units.Seconds
	// Controller picks bitrates. Required.
	Controller abr.Controller
	// Predictor forecasts throughput. Required.
	Predictor predictor.Predictor
	// Weights are the QoE weights; zero value uses the paper's defaults.
	Weights qoe.Weights
	// Utility maps a rung to a [0,1] utility; nil uses the normalized log
	// utility of §6. The prototype evaluation passes normalized SSIM instead.
	Utility func(rung int) float64
	// RecordTrajectory retains the per-segment buffer/rung trajectory
	// (needed by the Figure 3 pathology plot).
	RecordTrajectory bool
	// OnResult, when non-nil, is invoked by RunMany (and so RunDataset) once
	// per completed session with the trace index, the controller that ran
	// it, and the session Result — the hook harnesses use to collect
	// per-session solver statistics before the controller is discarded. It
	// runs on the worker goroutines, so it must be safe for concurrent use.
	// Run itself ignores it (a single-session caller already holds both
	// values).
	OnResult func(index int, ctrl abr.Controller, res Result)
	// Telemetry, when non-nil, receives one DecisionEvent per Decide plus
	// per-session solver/QoE aggregates. Recording is strictly pull-based —
	// the simulator snapshots SolveStats around each Decide and feeds the
	// collector from outside the controller — and never changes the decision
	// sequence; the TelemetryConformance contract in internal/abrtest pins
	// that bit-identity. Nil disables telemetry at zero cost.
	Telemetry *telemetry.Collector
	// TelemetrySession labels this session's events (the trace index of a
	// dataset run). RunDataset sets it automatically.
	TelemetrySession int
	// Watchdog, when non-nil, receives every decision through the
	// QoE-consistency detectors (rung oscillation, stall onset, buffer
	// underrun risk). Like Telemetry it observes from outside the
	// controller and never changes the decision sequence — pinned by
	// abrtest.FlightRecConformance. Per-session detector state is a local
	// of Run, so one Watchdog safely serves a whole concurrent dataset.
	Watchdog *flightrec.Watchdog
}

// TrajectoryPoint is one per-segment snapshot of the session state.
type TrajectoryPoint struct {
	Time        units.Seconds // stream clock when the segment finished downloading
	Buffer      units.Seconds // buffer level after the segment was appended
	Rung        int
	RebufferSec units.Seconds // stall charged to this segment's download
}

// Result is the outcome of one simulated session.
type Result struct {
	Metrics    qoe.Metrics
	Rungs      []int
	Trajectory []TrajectoryPoint // nil unless Config.RecordTrajectory
	Waits      int               // controller-initiated idle periods
	Abandons   int               // downloads aborted by segment abandonment
	Duration   units.Seconds     // stream-clock session length including stalls
}

// ErrStuck is returned when the controller wedges the session (e.g. waiting
// forever on an empty buffer); it indicates a controller bug, not a network
// condition.
var ErrStuck = errors.New("sim: session made no progress")

func (c *Config) validate() error {
	if c.Controller == nil {
		return errors.New("sim: nil controller")
	}
	if c.Predictor == nil {
		return errors.New("sim: nil predictor")
	}
	if c.Ladder.Len() == 0 {
		return errors.New("sim: empty ladder")
	}
	if !(c.BufferCap >= c.Ladder.SegmentSeconds) || math.IsInf(float64(c.BufferCap), 1) {
		return fmt.Errorf("sim: buffer cap %v not finite and at least one segment (%v s)", c.BufferCap, c.Ladder.SegmentSeconds)
	}
	if c.LatencySeconds < 0 {
		return fmt.Errorf("sim: negative latency %v", c.LatencySeconds)
	}
	if c.Live && c.LiveEdgeOffsetSeconds < 0 {
		return fmt.Errorf("sim: negative live-edge offset %v", c.LiveEdgeOffsetSeconds)
	}
	return nil
}

// Run simulates one session over the trace and returns its Result.
func Run(tr *trace.Trace, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	ladder := cfg.Ladder
	l := ladder.SegmentSeconds
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = video.CBR{Ladder: ladder}
	}
	utility := cfg.Utility
	if utility == nil {
		utility = ladder.LogUtility
	}
	startup := cfg.StartupSegments
	if startup < 1 {
		startup = 1
	}
	weights := cfg.Weights
	if weights == (qoe.Weights{}) {
		weights = qoe.DefaultWeights()
	}
	session := cfg.SessionSeconds
	if session <= 0 {
		session = tr.Duration()
	}
	totalSegments := int(session / l)
	if totalSegments < 1 {
		return Result{}, fmt.Errorf("sim: session %v s shorter than one segment", session)
	}

	cfg.Controller.Reset()
	cfg.Predictor.Reset()

	// Telemetry is recorded from outside the controller: stats are
	// snapshotted around Decide and events buffered on a per-session
	// recorder, so a nil collector costs nothing and a live one never
	// changes the decision sequence.
	rec := cfg.Telemetry.StartSession(cfg.TelemetrySession)
	// A decision's solver work is the difference of the SolveStats snapshots
	// taken after it and after the previous one: stats rolls forward, so each
	// decision costs one snapshot, not two. The concrete type lets the
	// snapshot inline; other controllers report no solver work.
	var stats core.SolveStats
	soda, _ := cfg.Controller.(*core.Controller)
	if rec != nil && soda != nil {
		stats = soda.SolveStats()
	}

	var (
		tally    qoe.SessionTally
		result   Result
		lastMbps units.Mbps
		watch    flightrec.SessionWatch // per-session QoE detector state
		st       = arena.State{PrevRung: int32(abr.NoRung)}
	)
	player := Player{Segment: l, BufferCap: cfg.BufferCap, Startup: int32(startup), Tally: &tally}
	// One context per session: its bindings forecast at the clock, which no
	// Decide moves, and each decision rewrites the fields that change.
	ctx := &abr.Context{BufferCap: cfg.BufferCap, Ladder: ladder, TotalSegments: totalSegments,
		Predict: func(h units.Seconds) units.Mbps { return cfg.Predictor.Predict(st.Clock, h) }}
	if q, ok := cfg.Predictor.(predictor.QuantilePredictor); ok {
		ctx.PredictQuantile = func(p float64, h units.Seconds) units.Mbps { return q.Quantile(st.Clock, h, p) }
	}

	maxIters := 20*totalSegments + 1000
	iters := 0
	for seg := 0; seg < totalSegments; seg++ {
		player.ToCap(&st)
		ctx.Now, ctx.Buffer, ctx.PrevRung = st.Clock, st.Buffer, int(st.PrevRung)
		ctx.SegmentIndex, ctx.LastThroughput = seg, lastMbps

		var (
			ev    *telemetry.DecisionEvent
			timed bool
			t0    time.Time
		)
		if rec != nil {
			if timed = rec.SampleLatency(); timed {
				t0 = time.Now()
			}
		}
		decision := cfg.Controller.Decide(ctx)
		if iters++; iters > maxIters {
			return Result{}, fmt.Errorf("%w at segment %d", ErrStuck, seg)
		}
		if rec != nil {
			// Fill the recorder's buffer slot in place (Start/Commit); a
			// build-then-copy of the ~100-byte event is measurable against
			// the sub-microsecond decision loop.
			ev = rec.Start()
			ev.Segment = int32(seg)
			ev.PrevRung = int16(ctx.PrevRung)
			ev.Buffer = ctx.Buffer
			ev.Throughput = lastMbps
			ev.Timed = timed
			ev.AtSeconds = ctx.Now
			if timed {
				ev.SolveSeconds = units.Seconds(time.Since(t0).Seconds())
			}
			if soda != nil {
				s := soda.SolveStats()
				ev.Solves, ev.Nodes = uint32(s.Solves-stats.Solves), uint32(s.Nodes-stats.Nodes)
				ev.SharedHits = uint32(s.SharedHits - stats.SharedHits)
				ev.TableHits = uint32(s.TableHits - stats.TableHits)
				stats = s
			}
		}
		if decision.Rung == abr.NoRung {
			if wait := player.Wait(&st, decision.WaitSeconds); wait > 0 {
				result.Waits++
				if rec != nil {
					ev.Rung = abr.NoRung
					ev.WaitSeconds = wait
					rec.Commit()
				}
				cfg.Watchdog.Observe(&watch, int32(cfg.TelemetrySession), ctx.Now, ctx.Buffer, abr.NoRung, int16(ctx.PrevRung))
				seg-- // retry the same segment index after idling
				continue
			}
			decision.Rung = 0 // the wait rule's rung on an empty buffer
		}
		rung := ladder.ClampIndex(decision.Rung)
		if rec != nil {
			ev.Rung = int16(rung)
			ev.Bitrate = ladder.Mbps(rung)
			rec.Commit()
		}
		cfg.Watchdog.Observe(&watch, int32(cfg.TelemetrySession), ctx.Now, ctx.Buffer, int16(rung), int16(ctx.PrevRung))

		// Live-edge availability: the broadcast has not produced this
		// segment yet; idle until it appears.
		var segStall units.Seconds // stall charged to this segment
		if cfg.Live {
			offset := cfg.LiveEdgeOffsetSeconds
			if offset <= 0 {
				offset = cfg.BufferCap
			}
			if avail := units.Seconds(seg)*l - offset; st.Clock < avail {
				segStall = player.Advance(&st, avail-st.Clock)
			}
		}

		size := sizes.SegmentMegabits(rung, seg)
		dl, err := player.Download(&st, tr, st.Clock+cfg.LatencySeconds, size)
		if err != nil {
			return Result{}, fmt.Errorf("sim: segment %d: %w", seg, err)
		}
		dlTime := cfg.LatencySeconds + dl
		if cfg.Abandonment && player.playing(&st) && rung > 0 && dlTime > st.Buffer+1e-9 {
			// The download would outlast the buffer: play out the buffer,
			// abandon the in-flight segment at the moment the buffer runs
			// dry, and refetch at the lowest rung (dash.js abandonment).
			result.Abandons++
			player.Advance(&st, st.Buffer) // drains the buffer exactly
			rung = 0
			size = sizes.SegmentMegabits(rung, seg)
			dl, err = player.Download(&st, tr, st.Clock+cfg.LatencySeconds, size)
			if err != nil {
				return Result{}, fmt.Errorf("sim: segment %d (abandoned): %w", seg, err)
			}
			dlTime = cfg.LatencySeconds + dl
		}
		segStall += player.Deposit(&st, rung, dlTime)

		lastMbps = size.Over(dlTime)
		cfg.Predictor.Observe(predictor.Sample{Mbps: lastMbps, Duration: dlTime, EndTime: st.Clock})
		tally.AddSegment(rung, utility(rung))
		if cfg.RecordTrajectory {
			result.Trajectory = append(result.Trajectory, TrajectoryPoint{
				Time:        st.Clock,
				Buffer:      st.Buffer,
				Rung:        rung,
				RebufferSec: segStall,
			})
		}
	}
	player.Drain(&st)

	result.Metrics = tally.Finalize(weights)
	result.Rungs = append([]int(nil), tally.Rungs()...)
	result.Duration = st.Clock
	if rec != nil {
		// No Decide ran after the last snapshot, so stats is the session's
		// total.
		rec.Finish(stats, result.Metrics.Segments, result.Metrics.RebufferSec)
	}
	return result, nil
}

// SessionFactory builds a fresh controller and predictor for each session of
// a dataset run; sessions must not share mutable state.
type SessionFactory func() (abr.Controller, predictor.Predictor)

// RunMany simulates every trace with its own controller/predictor built by
// the factory, on a GOMAXPROCS-bounded worker pool, and returns the full
// per-session Results indexed by input position. The pool is fixed-size — a
// ten-thousand-trace dataset never fans out ten thousand goroutines — and
// results are written by index, so the output order is deterministic
// regardless of worker interleaving (each session is itself deterministic
// given its trace and factory).
func RunMany(traces []*trace.Trace, factory SessionFactory, base Config) ([]Result, error) {
	out := make([]Result, len(traces))
	errs := make([]error, len(traces))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(traces) {
		workers = len(traces)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	// Buffered so a dying worker can never block the producer.
	jobs := make(chan int, len(traces))
	for i := range traces {
		jobs <- i
	}
	close(jobs)
	runOne := func(i int) (res Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sim: session %d panicked: %v", i, r)
			}
		}()
		cfg := base
		cfg.Controller, cfg.Predictor = factory()
		cfg.TelemetrySession = i
		res, err = Run(traces[i], cfg)
		if err != nil {
			return Result{}, err
		}
		if base.OnResult != nil {
			base.OnResult(i, cfg.Controller, res)
		}
		return res, nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = runOne(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: session %d: %w", i, err)
		}
	}
	return out, nil
}

// RunDataset simulates every trace with its own controller/predictor built by
// the factory, in parallel, preserving input order in the returned metrics.
// It is RunMany reduced to the QoE metrics alone.
func RunDataset(traces []*trace.Trace, factory SessionFactory, base Config) ([]qoe.Metrics, error) {
	results, err := RunMany(traces, factory, base)
	if err != nil {
		return nil, err
	}
	out := make([]qoe.Metrics, len(results))
	for i, res := range results {
		out[i] = res.Metrics
	}
	return out, nil
}
