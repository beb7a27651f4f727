// Package video models the video side of adaptive bitrate streaming: bitrate
// ladders, segment size models (CBR and VBR), and the utility functions the
// paper's evaluation uses (the normalized logarithmic utility of §6 and the
// SSIM-based utility of the prototype evaluation, §6.2.3).
package video

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/units"
)

// Rung is one encoding of the video: a bitrate and its nominal resolution.
type Rung struct {
	Mbps   units.Mbps
	Width  int
	Height int
}

// Ladder is an ascending set of bitrate rungs plus the segment duration.
// Ladders are immutable after construction.
type Ladder struct {
	Rungs          []Rung
	SegmentSeconds units.Seconds
}

// NewLadder builds a ladder from ascending bitrates with the given segment
// duration. It panics on empty, non-ascending or non-positive input; ladders
// are program constants, so misconfiguration is a programming error.
func NewLadder(mbps []float64, segmentSeconds units.Seconds) Ladder {
	if len(mbps) == 0 {
		panic("video: empty ladder")
	}
	if segmentSeconds <= 0 {
		panic("video: non-positive segment duration")
	}
	rungs := make([]Rung, len(mbps))
	prev := 0.0
	for i, r := range mbps {
		if r <= prev {
			panic(fmt.Sprintf("video: ladder must be strictly ascending and positive, got %v after %v", r, prev))
		}
		rungs[i] = Rung{Mbps: units.Mbps(r)}
		prev = r
	}
	return Ladder{Rungs: rungs, SegmentSeconds: segmentSeconds}
}

// YouTube4K returns the high-frame-rate 4K ladder used in the paper's
// numerical simulations (§6.1.1): YouTube-recommended bitrates
// 1.5, 4, 7.5, 12, 24 and 60 Mb/s with 2-second segments.
func YouTube4K() Ladder {
	l := NewLadder([]float64{1.5, 4, 7.5, 12, 24, 60}, units.Seconds(2))
	res := [][2]int{{640, 360}, {1280, 720}, {1920, 1080}, {2560, 1440}, {3840, 2160}, {3840, 2160}}
	for i := range l.Rungs {
		l.Rungs[i].Width, l.Rungs[i].Height = res[i][0], res[i][1]
	}
	return l
}

// Mobile returns the ladder used for the 4G and 5G datasets: the same video
// with the two highest bitrates removed (§6.1.1).
func Mobile() Ladder {
	full := YouTube4K()
	return Ladder{Rungs: full.Rungs[:4], SegmentSeconds: full.SegmentSeconds}
}

// Prototype returns the ladder of the prototype evaluation (§6.2.1): a news
// clip in five resolutions from 426x240 to 1920x1080 at constant rate factor
// 26, whose highest rung averages about 2 Mb/s, with 2-second segments.
func Prototype() Ladder {
	l := NewLadder([]float64{0.2, 0.4, 0.8, 1.3, 2.0}, units.Seconds(2))
	res := [][2]int{{426, 240}, {640, 360}, {854, 480}, {1280, 720}, {1920, 1080}}
	for i := range l.Rungs {
		l.Rungs[i].Width, l.Rungs[i].Height = res[i][0], res[i][1]
	}
	return l
}

// PrimeVideo returns the production bitrate ladder of §6.3:
// {0.2, 0.45, 0.8, 1.2, 1.8, 2, 4, 5, 6.5, 8.0} Mb/s.
func PrimeVideo() Ladder {
	return NewLadder([]float64{0.2, 0.45, 0.8, 1.2, 1.8, 2, 4, 5, 6.5, 8.0}, units.Seconds(2))
}

// NamedLadder pairs a registered ladder with its evaluation name, for
// harnesses that iterate every ladder in use (conformance contracts, fuzz
// corpora).
type NamedLadder struct {
	Name   string
	Ladder Ladder
}

// NamedLadders returns every ladder of the evaluation, in a fixed order.
func NamedLadders() []NamedLadder {
	return []NamedLadder{
		{Name: "youtube4k", Ladder: YouTube4K()},
		{Name: "mobile", Ladder: Mobile()},
		{Name: "prototype", Ladder: Prototype()},
		{Name: "primevideo", Ladder: PrimeVideo()},
	}
}

// LadderNamed returns the ladder NamedLadders lists under name; the
// commands' -ladder flags take these names.
func LadderNamed(name string) (Ladder, error) {
	var names []string
	for _, nl := range NamedLadders() {
		if nl.Name == name {
			return nl.Ladder, nil
		}
		names = append(names, nl.Name)
	}
	return Ladder{}, fmt.Errorf("unknown ladder %q (want one of %v)", name, names)
}

// Len returns the number of rungs.
func (l Ladder) Len() int { return len(l.Rungs) }

// Mbps returns the bitrate of rung i.
func (l Ladder) Mbps(i int) units.Mbps { return l.Rungs[i].Mbps }

// Min and Max return the lowest and highest bitrates.
func (l Ladder) Min() units.Mbps { return l.Rungs[0].Mbps }

// Max returns the highest bitrate of the ladder.
func (l Ladder) Max() units.Mbps { return l.Rungs[len(l.Rungs)-1].Mbps }

// Bitrates returns a copy of the bitrates in ascending order.
func (l Ladder) Bitrates() []units.Mbps {
	out := make([]units.Mbps, len(l.Rungs))
	for i, r := range l.Rungs {
		out[i] = r.Mbps
	}
	return out
}

// MaxSustainable returns the index of the highest rung whose bitrate does not
// exceed mbps, or 0 when even the lowest rung exceeds it.
func (l Ladder) MaxSustainable(mbps units.Mbps) int {
	best := 0
	for i, r := range l.Rungs {
		if r.Mbps <= mbps {
			best = i
		}
	}
	return best
}

// CapIndex returns the index of min{r in R : r >= mbps}: the §5.1 heuristic
// cap "select a bitrate no higher than the smallest rung at or above the
// predicted throughput". When mbps exceeds every rung, the top rung index is
// returned.
func (l Ladder) CapIndex(mbps units.Mbps) int {
	for i, r := range l.Rungs {
		if r.Mbps >= mbps {
			return i
		}
	}
	return len(l.Rungs) - 1
}

// ClampIndex limits i to the valid rung range.
func (l Ladder) ClampIndex(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(l.Rungs) {
		return len(l.Rungs) - 1
	}
	return i
}

// SegmentMegabits returns the nominal (CBR) size of one segment at rung i.
func (l Ladder) SegmentMegabits(i int) units.Megabits {
	return l.Rungs[i].Mbps.MegabitsIn(l.SegmentSeconds)
}

// LogUtility returns the commonly-used normalized logarithmic utility of §6:
// log(r/rmin)/log(rmax/rmin), clamped to [0, 1]. A single-rung ladder has
// utility 1 for its only rung.
func (l Ladder) LogUtility(i int) float64 {
	rmin, rmax := l.Min(), l.Max()
	if rmin == rmax {
		return 1
	}
	u := math.Log(float64(l.Rungs[i].Mbps/rmin)) / math.Log(float64(rmax/rmin))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// SizeModel produces per-segment encoded sizes. Implementations must be safe
// to call with any rung index in range and any non-negative segment index.
type SizeModel interface {
	// SegmentMegabits returns the size of segment segIdx at rung i.
	SegmentMegabits(i, segIdx int) units.Megabits
}

// CBR is a constant-bitrate size model: every segment at rung i has exactly
// the nominal size.
type CBR struct{ Ladder Ladder }

// SegmentMegabits implements SizeModel.
func (c CBR) SegmentMegabits(i, _ int) units.Megabits { return c.Ladder.SegmentMegabits(i) }

// VBR models variable-bitrate encodings: segment sizes vary around the
// nominal size by a log-normal factor shared across rungs for a given segment
// index (scene complexity affects all encodings of a segment similarly).
// Factors are deterministic functions of (Seed, segIdx), so sessions are
// reproducible and all rungs of a segment share the same complexity.
type VBR struct {
	Ladder Ladder
	Sigma  float64 // log-space standard deviation, e.g. 0.15
	Seed   uint64
}

// SegmentMegabits implements SizeModel.
func (v VBR) SegmentMegabits(i, segIdx int) units.Megabits {
	rng := rand.New(rand.NewPCG(v.Seed, uint64(segIdx)+1))
	factor := math.Exp(rng.NormFloat64()*v.Sigma - v.Sigma*v.Sigma/2)
	return v.Ladder.SegmentMegabits(i) * units.Megabits(factor)
}

// SSIMModel maps bitrate to structural-similarity quality, the utility used
// by the prototype evaluation (§6.2.3, normalized mean SSIM). The model is
// monotone increasing and concave in bitrate:
//
//	SSIM(r) = 1 - D0 * (r/RefMbps)^(-Q)
//
// with defaults calibrated so a 0.2 Mb/s news-clip encode scores ~0.90 and a
// 2 Mb/s encode ~0.98, matching typical Puffer SSIM ranges.
type SSIMModel struct {
	D0      float64    // distortion at the reference bitrate
	Q       float64    // decay exponent
	RefMbps units.Mbps // reference bitrate
}

// DefaultSSIM returns the calibrated prototype SSIM model.
func DefaultSSIM() SSIMModel {
	return SSIMModel{D0: 0.10, Q: math.Log(5) / math.Log(10), RefMbps: units.Mbps(0.2)}
}

// SSIM returns the modeled SSIM at bitrate mbps, clamped to [0, 1].
func (m SSIMModel) SSIM(mbps units.Mbps) float64 {
	if mbps <= 0 {
		return 0
	}
	s := 1 - m.D0*math.Pow(float64(mbps/m.RefMbps), -m.Q)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// NormalizedUtility returns SSIM(mbps)/SSIM(maxMbps): the v = SSIM/SSIMmax
// utility of §6.2.3.
func (m SSIMModel) NormalizedUtility(mbps, maxMbps units.Mbps) float64 {
	denom := m.SSIM(maxMbps)
	if denom <= 0 {
		return 0
	}
	return m.SSIM(mbps) / denom
}
