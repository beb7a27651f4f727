package video

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestLadderConstruction(t *testing.T) {
	l := NewLadder([]float64{1, 2, 4}, units.Seconds(2))
	if l.Len() != 3 || l.Min() != 1 || l.Max() != 4 {
		t.Errorf("ladder %+v", l)
	}
	if l.Mbps(1) != 2 {
		t.Errorf("Mbps(1) = %v", l.Mbps(1))
	}
	br := l.Bitrates()
	br[0] = 99 // must not alias internal storage
	if l.Min() != 1 {
		t.Error("Bitrates aliases internal storage")
	}
}

func TestNewLadderPanics(t *testing.T) {
	cases := []struct {
		mbps []float64
		seg  float64
	}{
		{nil, 2},
		{[]float64{1, 1}, 2},
		{[]float64{2, 1}, 2},
		{[]float64{0, 1}, 2},
		{[]float64{1, 2}, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLadder(%v, %v) should panic", c.mbps, c.seg)
				}
			}()
			NewLadder(c.mbps, units.Seconds(c.seg))
		}()
	}
}

func TestStandardLadders(t *testing.T) {
	yt := YouTube4K()
	if yt.Len() != 6 || yt.Min() != 1.5 || yt.Max() != 60 || yt.SegmentSeconds != 2 {
		t.Errorf("YouTube4K = %+v", yt)
	}
	mob := Mobile()
	if mob.Len() != 4 || mob.Max() != 12 {
		t.Errorf("Mobile = %+v", mob)
	}
	proto := Prototype()
	if proto.Len() != 5 || proto.Max() != 2.0 {
		t.Errorf("Prototype = %+v", proto)
	}
	if proto.Rungs[4].Height != 1080 {
		t.Errorf("Prototype top rung resolution = %+v", proto.Rungs[4])
	}
	pv := PrimeVideo()
	if pv.Len() != 10 || pv.Min() != 0.2 || pv.Max() != 8.0 {
		t.Errorf("PrimeVideo = %+v", pv)
	}
}

func TestMaxSustainable(t *testing.T) {
	l := YouTube4K()
	cases := []struct {
		mbps float64
		want int
	}{
		{0.1, 0}, {1.5, 0}, {3.9, 0}, {4.0, 1}, {11, 2}, {60, 5}, {500, 5},
	}
	for _, c := range cases {
		if got := l.MaxSustainable(units.Mbps(c.mbps)); got != c.want {
			t.Errorf("MaxSustainable(%v) = %d, want %d", c.mbps, got, c.want)
		}
	}
}

func TestCapIndex(t *testing.T) {
	l := YouTube4K()
	cases := []struct {
		mbps float64
		want int
	}{
		{0.1, 0}, {1.5, 0}, {1.6, 1}, {4, 1}, {30, 5}, {60, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := l.CapIndex(units.Mbps(c.mbps)); got != c.want {
			t.Errorf("CapIndex(%v) = %d, want %d", c.mbps, got, c.want)
		}
	}
}

func TestClampIndex(t *testing.T) {
	l := Mobile()
	if l.ClampIndex(-3) != 0 || l.ClampIndex(99) != 3 || l.ClampIndex(2) != 2 {
		t.Error("ClampIndex misbehaves")
	}
}

func TestLogUtility(t *testing.T) {
	l := YouTube4K()
	if got := l.LogUtility(0); got != 0 {
		t.Errorf("utility of rmin = %v", got)
	}
	if got := l.LogUtility(5); math.Abs(got-1) > 1e-12 {
		t.Errorf("utility of rmax = %v", got)
	}
	prev := -1.0
	for i := 0; i < l.Len(); i++ {
		u := l.LogUtility(i)
		if u <= prev {
			t.Errorf("utility not strictly increasing at rung %d: %v <= %v", i, u, prev)
		}
		if u < 0 || u > 1 {
			t.Errorf("utility out of range at rung %d: %v", i, u)
		}
		prev = u
	}
	single := NewLadder([]float64{3}, units.Seconds(2))
	if single.LogUtility(0) != 1 {
		t.Errorf("single-rung utility = %v", single.LogUtility(0))
	}
}

func TestCBRSizes(t *testing.T) {
	l := YouTube4K()
	m := CBR{Ladder: l}
	if got := m.SegmentMegabits(0, 7); got != 3.0 {
		t.Errorf("CBR size = %v, want 3 (1.5 Mb/s x 2 s)", got)
	}
	if got := m.SegmentMegabits(5, 0); got != 120 {
		t.Errorf("CBR top size = %v, want 120", got)
	}
}

func TestVBRProperties(t *testing.T) {
	l := YouTube4K()
	m := VBR{Ladder: l, Sigma: 0.15, Seed: 42}
	// Deterministic for the same (seed, segment).
	if m.SegmentMegabits(2, 5) != m.SegmentMegabits(2, 5) {
		t.Error("VBR not deterministic")
	}
	// Complexity factor shared across rungs for a given segment.
	f0 := m.SegmentMegabits(0, 5) / l.SegmentMegabits(0)
	f5 := m.SegmentMegabits(5, 5) / l.SegmentMegabits(5)
	if math.Abs(float64(f0-f5)) > 1e-12 {
		t.Errorf("VBR factor differs across rungs: %v vs %v", f0, f5)
	}
	// Mean over many segments is close to nominal (factor has mean 1).
	sum := units.Megabits(0)
	n := 4000
	for i := 0; i < n; i++ {
		sum += m.SegmentMegabits(3, i)
	}
	mean := sum / units.Megabits(n)
	if math.Abs(float64(mean-l.SegmentMegabits(3))) > 0.02*float64(l.SegmentMegabits(3)) {
		t.Errorf("VBR mean = %v, nominal %v", mean, l.SegmentMegabits(3))
	}
	// Sizes are always positive.
	f := func(seg uint8) bool { return m.SegmentMegabits(1, int(seg)) > 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSSIMModel(t *testing.T) {
	m := DefaultSSIM()
	if got := m.SSIM(units.Mbps(0.2)); math.Abs(got-0.90) > 1e-9 {
		t.Errorf("SSIM(0.2) = %v, want 0.90", got)
	}
	if got := m.SSIM(units.Mbps(2.0)); math.Abs(got-0.98) > 1e-9 {
		t.Errorf("SSIM(2.0) = %v, want 0.98", got)
	}
	if m.SSIM(units.Mbps(0)) != 0 {
		t.Errorf("SSIM(0) = %v", m.SSIM(units.Mbps(0)))
	}
	// Monotone increasing.
	prev := -1.0
	for r := units.Mbps(0.1); r <= 60; r *= 1.5 {
		s := m.SSIM(r)
		if s <= prev {
			t.Errorf("SSIM not increasing at %v", r)
		}
		if s < 0 || s > 1 {
			t.Errorf("SSIM out of range at %v: %v", r, s)
		}
		prev = s
	}
	// Concavity in bitrate: marginal gains shrink.
	d1 := m.SSIM(units.Mbps(0.4)) - m.SSIM(units.Mbps(0.2))
	d2 := m.SSIM(units.Mbps(0.6)) - m.SSIM(units.Mbps(0.4))
	if d2 >= d1 {
		t.Errorf("SSIM not concave: %v then %v", d1, d2)
	}
}

func TestNormalizedUtility(t *testing.T) {
	m := DefaultSSIM()
	if got := m.NormalizedUtility(units.Mbps(2.0), units.Mbps(2.0)); math.Abs(got-1) > 1e-12 {
		t.Errorf("top-rung normalized utility = %v", got)
	}
	if got := m.NormalizedUtility(units.Mbps(0.2), units.Mbps(2.0)); got <= 0 || got >= 1 {
		t.Errorf("bottom-rung normalized utility = %v", got)
	}
	if got := m.NormalizedUtility(units.Mbps(1), units.Mbps(0)); got != 0 {
		t.Errorf("degenerate normalization = %v", got)
	}
}

// TestLadderNamed looks every registered name up and rejects the spellings
// the table does not use.
func TestLadderNamed(t *testing.T) {
	for _, nl := range NamedLadders() {
		l, err := LadderNamed(nl.Name)
		if err != nil || l.Len() != nl.Ladder.Len() || l.Max() != nl.Ladder.Max() {
			t.Errorf("LadderNamed(%q) = %v, %v", nl.Name, l, err)
		}
	}
	for _, name := range []string{"", "prime", "YouTube4K", "bogus"} {
		if _, err := LadderNamed(name); err == nil {
			t.Errorf("LadderNamed(%q) accepted", name)
		}
	}
}
