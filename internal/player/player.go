// Package player drives the TCP prototype with an ABR controller — the
// equivalent of the browser-based player of the paper's prototype evaluation
// (§6.2), measuring QoE under real transport dynamics instead of the fluid
// simulator.
//
// The prototype has one segment transport: Play dials an internal/proto
// server, and RunSession (the unit of Figure 12) starts that server in
// process on a loopback listener that internal/netem shapes with the
// session's trace. soda-player drives Play against a soda-server -addr the
// same way.
//
// The player operates in a compressed stream-time domain: with TimeScale = s
// the server's traffic shaper plays the bandwidth trace s× faster and the
// player's clock advances s stream-seconds per wall second, so a 10-minute
// session completes in 600/s wall seconds with identical controller inputs.
// Buffer, start-up and stall accounting is the simulator's player
// (sim.Player), advanced by the scaled wall clock instead of a trace.
package player

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/abr"
	"repro/internal/arena"
	"repro/internal/predictor"
	"repro/internal/proto"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/video"
)

// Config drives one prototype playback session.
type Config struct {
	// Addr is the segment server address, dialed with the binary protocol.
	Addr string
	// Controller picks bitrates. Required.
	Controller abr.Controller
	// Predictor forecasts throughput. Required.
	Predictor predictor.Predictor
	// BufferCap is the maximum buffer (15 s in Puffer, §6.2).
	BufferCap units.Seconds
	// TimeScale is the stream-time compression factor shared with the
	// server's shaper; >= 1. Defaults to 1.
	TimeScale float64
	// Utility maps a rung to [0, 1]; nil uses the normalized SSIM model of
	// the prototype evaluation.
	Utility func(rung int) float64
	// Weights are the QoE weights (zero value = paper defaults).
	Weights qoe.Weights
	// MaxSegments truncates the session (0 = play the whole manifest).
	MaxSegments int
	// DialTimeout bounds connection setup and each segment fetch.
	DialTimeout time.Duration
}

// Result is the outcome of one prototype session.
type Result struct {
	Metrics  qoe.Metrics
	Rungs    []int
	Manifest proto.Manifest
	Waits    int
}

// Play connects to the server and streams the whole session.
func Play(cfg Config) (Result, error) {
	if cfg.Controller == nil || cfg.Predictor == nil {
		return Result{}, errors.New("player: controller and predictor are required")
	}
	if cfg.BufferCap <= 0 {
		return Result{}, errors.New("player: non-positive buffer cap")
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	client, err := proto.Dial(cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return Result{}, err
	}
	defer client.Close()

	manifest := client.Manifest()
	ladder := video.NewLadder(manifest.BitratesMbps, units.Seconds(manifest.SegmentSeconds))
	total := manifest.TotalSegments
	if cfg.MaxSegments > 0 && cfg.MaxSegments < total {
		total = cfg.MaxSegments
	}
	utility := cfg.Utility
	if utility == nil {
		ssim := video.DefaultSSIM()
		maxMbps := ladder.Max()
		utility = func(r int) float64 { return ssim.NormalizedUtility(ladder.Mbps(r), maxMbps) }
	}
	weights := cfg.Weights
	if weights == (qoe.Weights{}) {
		weights = qoe.DefaultWeights()
	}

	cfg.Controller.Reset()
	cfg.Predictor.Reset()

	var (
		tally     qoe.SessionTally
		result    Result
		lastMbps  units.Mbps
		wallStart = time.Now()
		st        = arena.State{PrevRung: int32(abr.NoRung)}
	)
	result.Manifest = manifest
	player := sim.Player{Segment: ladder.SegmentSeconds, BufferCap: cfg.BufferCap, Startup: 1, Tally: &tally}
	// sinceSettled is the scaled wall time past the player's clock: the
	// buffer drains in real time while the player does anything else.
	sinceSettled := func() units.Seconds {
		return units.Seconds(time.Since(wallStart).Seconds()*scale) - st.Clock
	}
	// idle sleeps through stream time the player has already played (none
	// when d <= 0).
	idle := func(d units.Seconds) {
		time.Sleep(time.Duration(float64(d) / scale * float64(time.Second)))
		player.Advance(&st, sinceSettled())
	}

	ctx := &abr.Context{BufferCap: cfg.BufferCap, Ladder: ladder, TotalSegments: total,
		Predict: func(h units.Seconds) units.Mbps { return cfg.Predictor.Predict(st.Clock, h) }}
	if qp, ok := cfg.Predictor.(predictor.QuantilePredictor); ok {
		ctx.PredictQuantile = func(q float64, h units.Seconds) units.Mbps { return qp.Quantile(st.Clock, h, q) }
	}
	for seg := 0; seg < total; seg++ {
		player.Advance(&st, sinceSettled())
		idle(player.ToCap(&st))
		ctx.Now, ctx.Buffer, ctx.PrevRung = st.Clock, st.Buffer, int(st.PrevRung)
		ctx.SegmentIndex, ctx.LastThroughput = seg, lastMbps
		decision := cfg.Controller.Decide(ctx)
		if decision.Rung == abr.NoRung {
			if wait := player.Wait(&st, decision.WaitSeconds); wait > 0 {
				result.Waits++
				idle(wait)
				seg--
				continue
			}
			decision.Rung = 0
		}
		rung := ladder.ClampIndex(decision.Rung)

		nBytes, elapsed, err := client.FetchSegment(seg, rung)
		if err != nil {
			return Result{}, fmt.Errorf("player: segment %d: %w", seg, err)
		}
		player.Deposit(&st, rung, sinceSettled())
		streamElapsed := elapsed.Seconds() * scale
		if streamElapsed <= 0 {
			streamElapsed = 1e-6
		}
		lastMbps = units.Mbps(float64(nBytes) * 8 / 1e6 / streamElapsed)
		cfg.Predictor.Observe(predictor.Sample{Mbps: lastMbps, Duration: units.Seconds(streamElapsed), EndTime: st.Clock})
		tally.AddSegment(rung, utility(rung))
	}
	// Drain the buffer without sleeping: the remaining playback is smooth by
	// construction.
	player.Drain(&st)
	result.Metrics = tally.Finalize(weights)
	result.Rungs = append([]int(nil), tally.Rungs()...)
	return result, nil
}
