package player

import (
	"math"
	"testing"
	"time"

	"repro/internal/abr"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/video"

	_ "repro/internal/baseline"
	_ "repro/internal/core"

	"repro/internal/units"
)

type fixedController struct{ rung int }

func (f *fixedController) Name() string                     { return "fixed" }
func (f *fixedController) Decide(*abr.Context) abr.Decision { return abr.Decision{Rung: f.rung} }
func (f *fixedController) Reset()                           {}

func TestPlayValidation(t *testing.T) {
	if _, err := Play(Config{}); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := Play(Config{Controller: &fixedController{}, Predictor: predictor.NewEMA(units.Seconds(4))}); err == nil {
		t.Error("zero buffer cap accepted")
	}
	if _, err := Play(Config{
		Controller: &fixedController{},
		Predictor:  predictor.NewEMA(units.Seconds(4)),
		BufferCap:  units.Seconds(15),
		Addr:       "127.0.0.1:1",
	}); err == nil {
		t.Error("dead server address accepted")
	}
}

func TestRunSessionValidation(t *testing.T) {
	if _, err := RunSession(SessionSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := RunSession(SessionSpec{Trace: trace.Constant(units.Mbps(5), units.Seconds(60)), Ladder: video.Prototype()}); err == nil {
		t.Error("zero segments accepted")
	}
}

func TestPrototypeSteadySession(t *testing.T) {
	// 5 Mb/s link, 2 Mb/s top rung, fixed top rung: a clean session with no
	// stalls and full utility, over real TCP at 20x compression
	// (30 stream-minutes in ~hundreds of wall milliseconds of transfer).
	res, err := RunSession(SessionSpec{
		Trace:         trace.Constant(units.Mbps(5), units.Seconds(4000)),
		Ladder:        video.Prototype(),
		TotalSegments: 40,
		TimeScale:     20,
		Player: Config{
			Controller: &fixedController{rung: 4},
			Predictor:  predictor.NewEMA(units.Seconds(4)),
			BufferCap:  units.Seconds(15),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Segments != 40 {
		t.Fatalf("segments = %d", res.Metrics.Segments)
	}
	if res.Metrics.SwitchRate != 0 {
		t.Errorf("switch rate = %v", res.Metrics.SwitchRate)
	}
	if res.Metrics.RebufferRatio > 0.02 {
		t.Errorf("rebuffer ratio = %v on an overprovisioned link", res.Metrics.RebufferRatio)
	}
	if math.Abs(res.Metrics.MeanUtility-1) > 1e-9 {
		t.Errorf("top-rung SSIM utility = %v, want 1", res.Metrics.MeanUtility)
	}
	if res.Manifest.TotalSegments != 40 {
		t.Errorf("manifest segments = %d", res.Manifest.TotalSegments)
	}
}

func TestPrototypeUnderprovisionedStalls(t *testing.T) {
	// 0.9 Mb/s link, fixed 2 Mb/s rung: downloads take ~2.2x real time, so
	// the session must accumulate substantial rebuffering.
	res, err := RunSession(SessionSpec{
		Trace:         trace.Constant(units.Mbps(0.9), units.Seconds(4000)),
		Ladder:        video.Prototype(),
		TotalSegments: 15,
		TimeScale:     25,
		Player: Config{
			Controller: &fixedController{rung: 4},
			Predictor:  predictor.NewEMA(units.Seconds(4)),
			BufferCap:  units.Seconds(15),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RebufferRatio < 0.2 {
		t.Errorf("rebuffer ratio = %v, want heavy stalling", res.Metrics.RebufferRatio)
	}
}

func TestPrototypeSODAAdapts(t *testing.T) {
	// A link that collapses from 3 Mb/s to 0.5 Mb/s mid-session: SODA must
	// move down the ladder rather than stalling through the fade.
	tr := trace.New([]trace.Sample{{Duration: units.Seconds(40), Mbps: units.Mbps(3)}, {Duration: units.Seconds(120), Mbps: units.Mbps(0.5)}})
	ctrl, err := abr.New("soda", video.Prototype())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSession(SessionSpec{
		Trace:         tr,
		Ladder:        video.Prototype(),
		TotalSegments: 60,
		TimeScale:     20,
		Player: Config{
			Controller: ctrl,
			Predictor:  predictor.NewSafeEMA(),
			BufferCap:  units.Seconds(15),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// It must have used low rungs during the fade.
	lows := 0
	for _, r := range res.Rungs {
		if r <= 1 {
			lows++
		}
	}
	if lows < 10 {
		t.Errorf("SODA used low rungs only %d times through a long fade (rungs %v)", lows, res.Rungs)
	}
	if res.Metrics.RebufferRatio > 0.25 {
		t.Errorf("rebuffer ratio = %v, SODA should mostly ride the fade", res.Metrics.RebufferRatio)
	}
}

func TestPlayRespectsMaxSegments(t *testing.T) {
	res, err := RunSession(SessionSpec{
		Trace:         trace.Constant(units.Mbps(5), units.Seconds(1000)),
		Ladder:        video.Prototype(),
		TotalSegments: 50,
		TimeScale:     25,
		Player: Config{
			Controller:  &fixedController{rung: 0},
			Predictor:   predictor.NewEMA(units.Seconds(4)),
			BufferCap:   units.Seconds(15),
			MaxSegments: 8,
			DialTimeout: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Segments != 8 {
		t.Errorf("segments = %d, want 8", res.Metrics.Segments)
	}
}
