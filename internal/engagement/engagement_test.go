package engagement

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/units"
)

// viewingFraction is the expected share of the stream watched: the y-axis of
// Figure 1.
func viewingFraction(m Model, switchRate float64, stream units.Minutes) float64 {
	return float64(m.ExpectedViewingMinutes(switchRate, 0, stream) / stream)
}

func TestFigure1Anchor(t *testing.T) {
	// Users watch < 10% of the stream when switching rate > 20% (Fig. 1),
	// evaluated on a 2-hour sports stream with no rebuffering.
	m := Default()
	if frac := viewingFraction(m, 0.21, units.Minutes(120)); frac >= 0.10 {
		t.Errorf("viewing fraction at 21%% switching = %v, want < 0.10", frac)
	}
	// A perfectly smooth session is mostly watched.
	if frac := viewingFraction(m, 0, units.Minutes(120)); frac < 0.5 {
		t.Errorf("smooth-session viewing fraction = %v, want > 0.5", frac)
	}
}

func TestRebufferingAnchor(t *testing.T) {
	// ~3 minutes of viewing lost per 1% of rebuffering, near the typical
	// live operating point (low switching, low rebuffering, long stream).
	m := Default()
	stream := units.Minutes(180)
	d := m.ExpectedViewingMinutes(0.02, 0.015, stream) - m.ExpectedViewingMinutes(0.02, 0.005, stream)
	if d >= 0 {
		t.Fatalf("rebuffering should reduce viewing, delta = %v", d)
	}
	if math.Abs(float64(-d-3)) > 2 {
		t.Errorf("minutes lost per rebuffering point = %v, want ~3", -d)
	}
}

func TestViewingFractionMonotone(t *testing.T) {
	m := Default()
	prev := math.Inf(1)
	for s := 0.0; s <= 0.5; s += 0.05 {
		f := viewingFraction(m, s, units.Minutes(120))
		if f >= prev {
			t.Fatalf("viewing fraction not decreasing in switching at %v", s)
		}
		if f <= 0 || f > 1 {
			t.Fatalf("viewing fraction out of range: %v", f)
		}
		prev = f
	}
}

func TestExpectedViewingBounds(t *testing.T) {
	m := Default()
	if v := m.ExpectedViewingMinutes(0, 0, units.Minutes(60)); v <= 0 || v > 60 {
		t.Errorf("expected viewing = %v", v)
	}
	// Hazard floor keeps the model defined even with absurd inputs.
	if h := (Model{BaseRatePerMin: -5}).HazardPerMin(0, 0); h <= 0 {
		t.Errorf("hazard floor violated: %v", h)
	}
}

func TestSampleMatchesExpectation(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 60000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := float64(m.SampleViewingMinutes(0.05, 0.002, units.Minutes(120), rng))
		if v < 0 || v > 120 {
			t.Fatalf("sample out of range: %v", v)
		}
		sum += v
	}
	want := float64(m.ExpectedViewingMinutes(0.05, 0.002, units.Minutes(120)))
	if got := sum / n; math.Abs(got-want) > 0.5 {
		t.Errorf("sample mean %v, analytic %v", got, want)
	}
}
