package player

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/video"
)

// SessionSpec describes one self-contained prototype session: an in-process
// server on a loopback listener shaped by the trace, plus a player run
// against it. This is the unit of the Figure 12 experiment.
type SessionSpec struct {
	Trace         *trace.Trace
	Ladder        video.Ladder
	Sizes         video.SizeModel // nil = CBR
	TotalSegments int
	TimeScale     float64 // stream-time compression (e.g. 20)
	Player        Config  // Addr is filled in by RunSession
}

// RunSession starts a shaped server, plays the whole session and tears the
// server down. Each call is fully isolated: its own listener, shaper and
// connection.
func RunSession(spec SessionSpec) (Result, error) {
	if spec.Trace == nil || spec.Trace.Len() == 0 {
		return Result{}, fmt.Errorf("player: empty trace")
	}
	if spec.TotalSegments <= 0 {
		return Result{}, fmt.Errorf("player: non-positive segment count")
	}
	scale := spec.TimeScale
	if scale <= 0 {
		scale = 1
	}

	srv, err := proto.NewServer(spec.Ladder, spec.Sizes, spec.TotalSegments, nil)
	if err != nil {
		return Result{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	shaped := netem.NewListener(ln, func() (*netem.Shaper, error) {
		return netem.NewShaper(spec.Trace, scale)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, shaped) }()

	cfg := spec.Player
	cfg.Addr = ln.Addr().String()
	cfg.TimeScale = scale
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Minute
	}
	res, playErr := Play(cfg)

	cancel()
	select {
	case <-serveDone:
	case <-time.After(10 * time.Second):
		return Result{}, fmt.Errorf("player: server did not shut down")
	}
	return res, playErr
}
