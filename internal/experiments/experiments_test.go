package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

// testScale is a reduced workload keeping the suite fast while preserving
// the qualitative shapes the assertions check.
func testScale() Scale {
	return Scale{
		SessionsPerDataset: 10,
		SessionSeconds:     units.Seconds(600),
		SolverSamples:      400,
		NoiseSessions:      6,
		PrototypeSessions:  2,
		PrototypeSegments:  40,
		ProdSessionsPerArm: 8,
		Seed:               7,
	}
}

// TestScaled pins soda-experiments -scale: a factor multiplies every session
// and sample count, leaves the stream length, segment count and seed alone,
// and a factor of 0 or less keeps the defaults.
func TestScaled(t *testing.T) {
	base := DefaultScale()
	got := base.Scaled(2)
	want := base
	want.SessionsPerDataset = 2 * base.SessionsPerDataset
	want.SolverSamples = 2 * base.SolverSamples
	want.NoiseSessions = 2 * base.NoiseSessions
	want.PrototypeSessions = 2 * base.PrototypeSessions
	want.ProdSessionsPerArm = 2 * base.ProdSessionsPerArm
	if got != want {
		t.Errorf("Scaled(2) = %+v, want %+v", got, want)
	}
	for _, f := range []float64{0, -1} {
		if got := base.Scaled(f); got != base {
			t.Errorf("Scaled(%v) = %+v, want the defaults %+v", f, got, base)
		}
	}
}

func TestFigure01NegativeCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	res, err := Figure01(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions < 20 {
		t.Fatalf("too few filtered sessions: %d", res.Sessions)
	}
	if res.Fit.Slope >= 0 {
		t.Errorf("viewing vs switching slope = %v, want negative", res.Fit.Slope)
	}
	if res.FractionAt20 >= 0.10 {
		t.Errorf("fitted viewing at 20%% switching = %v, paper says < 10%%", res.FractionAt20)
	}
	if !strings.Contains(res.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure02LiveCompression(t *testing.T) {
	res := Figure02()
	if len(res.OnDemandThresholds) == 0 || len(res.LiveThresholds) == 0 {
		t.Fatalf("missing thresholds: %+v", res)
	}
	if res.OnDemandSpread <= 2*res.LiveSpread {
		t.Errorf("on-demand spread %.1f should dwarf live spread %.1f", res.OnDemandSpread, res.LiveSpread)
	}
	if res.LiveThresholds[len(res.LiveThresholds)-1] > 20 {
		t.Errorf("live thresholds exceed the buffer cap: %v", res.LiveThresholds)
	}
	_ = res.Render()
}

func TestFigure03Pathology(t *testing.T) {
	res, err := Figure03()
	if err != nil {
		t.Fatal(err)
	}
	// The switching-averse MPC objective rebuffers repeatedly while staying
	// at the unsustainable rung; SODA steps down with at most a stall or two.
	if res.MPCRebufferEvents < 5 {
		t.Errorf("MPC rebuffer events = %d, want many", res.MPCRebufferEvents)
	}
	if res.MPCTopRungFraction < 0.5 {
		t.Errorf("MPC spent only %v of the drop at/above the unsustainable rung", res.MPCTopRungFraction)
	}
	if res.SODARebufferSec > res.MPCRebufferSec/2 {
		t.Errorf("SODA rebuffered %.1fs vs MPC %.1fs", res.SODARebufferSec, res.MPCRebufferSec)
	}
	_ = res.Render()
}

func TestFigure04Example(t *testing.T) {
	res, err := Figure04()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 1, 2, 2}
	for i, w := range want {
		if math.Abs(res.TimeBased[i]-w) > 1e-9 {
			t.Errorf("time-based ω%d = %v, want %v", i+1, res.TimeBased[i], w)
		}
	}
	if math.Abs(res.SegmentBased[0]-4) > 1e-9 || math.Abs(res.SegmentBased[1]-2.5) > 1e-9 {
		t.Errorf("segment-based = %v, want [4 2.5]", res.SegmentBased)
	}
	_ = res.Render()
}

func TestFigure05Shape(t *testing.T) {
	res := Figure05()
	if len(res.Cells) != len(res.Buffers)*len(res.Omegas) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if res.WaitCells == 0 {
		t.Error("no blank no-download region found")
	}
	// More aggressive with throughput: mean committed rung grows along ω̂.
	means := res.MeanRungByOmega()
	if means[len(means)-1] <= means[0] {
		t.Errorf("mean rung not increasing with ω̂: %v", means)
	}
	if !strings.Contains(res.Render(), ".") {
		t.Error("render missing wait cells")
	}
}

func TestFigure06Decay(t *testing.T) {
	res, err := Figure06()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeadMean <= res.TailMean {
		t.Errorf("perturbation not decaying: head %v tail %v", res.HeadMean, res.TailMean)
	}
	if res.TailMean > 0.25*res.HeadMean {
		t.Errorf("tail %v should be well below head %v", res.TailMean, res.HeadMean)
	}
	_ = res.Render()
}

func TestFigure07CorrelationDecays(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	res, err := Figure07(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, cors := range [][]float64{res.MACorrelation, res.EMACorrelation} {
		if len(cors) != len(res.HorizonsSeconds) {
			t.Fatalf("correlation lengths: %d vs %d", len(cors), len(res.HorizonsSeconds))
		}
		// Strong in the immediate future, much weaker in the far future
		// (paper: ~50% near, ~15% far).
		if cors[0] < 0.3 {
			t.Errorf("near-future correlation = %v, want substantial", cors[0])
		}
		last := cors[len(cors)-1]
		if last > cors[0]*0.75 {
			t.Errorf("far-future correlation %v did not decay from %v", last, cors[0])
		}
	}
	_ = res.Render()
}

func TestFigure08ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	res := Figure08(testScale())
	if len(res.Mismatch) != len(res.Horizons) {
		t.Fatalf("rows = %d", len(res.Mismatch))
	}
	for ki, row := range res.Mismatch {
		// Decreasing in the switching weight (with sampling slack).
		if row[len(row)-1] > row[0]+0.02 {
			t.Errorf("K=%d: mismatch not decreasing: %v", res.Horizons[ki], row)
		}
		// Small at the right edge.
		if row[len(row)-1] > 0.12 {
			t.Errorf("K=%d: right-edge mismatch %v too large", res.Horizons[ki], row[len(row)-1])
		}
	}
	// Larger K has (weakly) larger mismatch at fixed weight.
	if res.Mismatch[0][1] > res.Mismatch[len(res.Mismatch)-1][1]+0.03 {
		t.Errorf("mismatch not growing with K: K=%d %v vs K=%d %v",
			res.Horizons[0], res.Mismatch[0][1],
			res.Horizons[len(res.Horizons)-1], res.Mismatch[len(res.Mismatch)-1][1])
	}
	_ = res.Render()
}

func TestFigure09MatchesTargets(t *testing.T) {
	res, err := Figure09(testScale())
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string][2]float64{
		"puffer": {57.1, 0.472},
		"5g":     {31.3, 1.33},
		"4g":     {13.0, 0.806},
	}
	for _, n := range res.Names {
		want := targets[n.Name]
		if math.Abs(n.MeanMbps-want[0])/want[0] > 0.15 {
			t.Errorf("%s mean = %v, target %v", n.Name, n.MeanMbps, want[0])
		}
		if math.Abs(n.RSD-want[1])/want[1] > 0.2 {
			t.Errorf("%s RSD = %v, target %v", n.Name, n.RSD, want[1])
		}
		if res.Histogram[n.Name].Total == 0 {
			t.Errorf("%s histogram empty", n.Name)
		}
	}
	_ = res.Render()
}
