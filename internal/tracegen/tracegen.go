// Package tracegen generates the synthetic network-trace datasets used in
// place of the paper's three public datasets (Puffer, 5G, 4G; §6.1.1).
//
// The paper characterizes each dataset by its mean throughput and relative
// standard deviation (Fig. 9: Puffer 57.1 Mb/s / 47.2%, 5G 31.3 Mb/s / 133%,
// 4G 13.0 Mb/s / 80.6%) and stresses that volatility is what differentiates
// controllers (Fig. 10 buckets Puffer sessions into RSD quartiles). The
// generator therefore reproduces those two moments *exactly in expectation*:
//
//   - a continuous-time Markov regime process (good/degraded/bad link states)
//     provides the burstiness and regime shifts that stress ABR controllers;
//   - within a regime, bandwidth is the regime mean times a log-normal AR(1)
//     multiplier with unit mean, providing second-scale jitter;
//   - regime means are rescaled so the stationary mean matches the target,
//     and the log-normal sigma is solved analytically so the marginal RSD
//     matches the target.
//
// Every generator call is deterministic for a given (profile, seed).
package tracegen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/trace"
	"repro/internal/units"
)

// State is one link regime with a relative mean bandwidth (rescaled during
// calibration so the stationary mean hits the profile target).
type State struct {
	RelMean float64
}

// Profile describes one synthetic dataset.
type Profile struct {
	Name           string
	TargetMeanMbps float64
	TargetRSD      float64
	States         []State
	// Transition is the per-step regime transition matrix (rows sum to 1).
	Transition [][]float64
	// StepSeconds is the bandwidth sample granularity (typically 1 s).
	StepSeconds float64
	// AR is the log-space AR(1) coefficient for within-regime jitter,
	// in [0, 1). Higher values give smoother second-scale variation.
	AR float64
	// RampRate controls how fast the effective regime mean moves toward a
	// newly entered regime's mean, per step, in (0, 1]. Real links degrade
	// and recover over a few seconds rather than discontinuously; 0.35 gives
	// a ~3 s transition. Zero defaults to 0.35.
	RampRate float64
}

// Puffer returns the profile calibrated to the paper's Puffer dataset:
// mean 57.1 Mb/s, RSD 47.2% — comparatively good, stable broadband links.
func Puffer() Profile {
	return Profile{
		Name:           "puffer",
		TargetMeanMbps: 57.1,
		TargetRSD:      0.472,
		States:         []State{{1.3}, {0.9}, {0.45}},
		Transition: [][]float64{
			{0.9950, 0.0040, 0.0010},
			{0.0080, 0.9890, 0.0030},
			{0.0040, 0.0110, 0.9850},
		},
		StepSeconds: 1,
		AR:          0.95,
	}
}

// FiveG returns the profile calibrated to the 5G dataset: mean 31.3 Mb/s,
// RSD 133% — very high peaks with deep fades (mobility, beam loss).
func FiveG() Profile {
	return Profile{
		Name:           "5g",
		TargetMeanMbps: 31.3,
		TargetRSD:      1.33,
		States:         []State{{2.0}, {1.0}, {0.08}},
		Transition: [][]float64{
			{0.9870, 0.0100, 0.0030},
			{0.0130, 0.9770, 0.0100},
			{0.0100, 0.0170, 0.9730},
		},
		StepSeconds: 1,
		AR:          0.88,
	}
}

// FourG returns the profile calibrated to the 4G dataset: mean 13.0 Mb/s,
// RSD 80.6% — mobile links with moderate volatility.
func FourG() Profile {
	return Profile{
		Name:           "4g",
		TargetMeanMbps: 13.0,
		TargetRSD:      0.806,
		States:         []State{{1.6}, {0.9}, {0.25}},
		Transition: [][]float64{
			{0.9900, 0.0085, 0.0015},
			{0.0100, 0.9800, 0.0100},
			{0.0070, 0.0130, 0.9800},
		},
		StepSeconds: 1,
		AR:          0.92,
	}
}

// Profiles returns the three dataset profiles in paper order.
func Profiles() []Profile { return []Profile{Puffer(), FiveG(), FourG()} }

// ProfileNamed returns the profile of Profiles whose Name is name; the
// commands' -dataset and -profile flags take these names.
func ProfileNamed(name string) (Profile, error) {
	var names []string
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("unknown profile %q (want one of %v)", name, names)
}

// Validate checks profile invariants.
func (p Profile) Validate() error {
	n := len(p.States)
	if n == 0 {
		return fmt.Errorf("tracegen: profile %q has no states", p.Name)
	}
	if len(p.Transition) != n {
		return fmt.Errorf("tracegen: profile %q transition matrix has %d rows, want %d", p.Name, len(p.Transition), n)
	}
	for i, row := range p.Transition {
		if len(row) != n {
			return fmt.Errorf("tracegen: profile %q transition row %d has %d cols", p.Name, i, len(row))
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				return fmt.Errorf("tracegen: profile %q negative transition prob in row %d", p.Name, i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("tracegen: profile %q transition row %d sums to %v", p.Name, i, sum)
		}
	}
	for i, s := range p.States {
		if s.RelMean <= 0 {
			return fmt.Errorf("tracegen: profile %q state %d has non-positive mean", p.Name, i)
		}
	}
	if p.TargetMeanMbps <= 0 || p.TargetRSD < 0 {
		return fmt.Errorf("tracegen: profile %q invalid targets", p.Name)
	}
	if p.StepSeconds <= 0 {
		return fmt.Errorf("tracegen: profile %q non-positive step", p.Name)
	}
	if p.AR < 0 || p.AR >= 1 {
		return fmt.Errorf("tracegen: profile %q AR coefficient %v out of [0,1)", p.Name, p.AR)
	}
	return nil
}

// Stationary returns the stationary distribution of the profile's regime
// chain, computed by power iteration.
func (p Profile) Stationary() []float64 {
	n := len(p.States)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += pi[i] * p.Transition[i][j]
			}
		}
		delta := 0.0
		for j := range pi {
			delta += math.Abs(next[j] - pi[j])
			pi[j] = next[j]
		}
		if delta < 1e-13 {
			break
		}
	}
	return pi
}

// calibration holds the derived generator parameters.
type calibration struct {
	means []float64 // absolute regime means (Mb/s), rescaled to target
	pi    []float64
	sigma float64 // log-space sd of the unit-mean multiplier
}

// Calibrate solves the generator parameters so the stationary marginal
// distribution has exactly the profile's target mean and RSD. It returns an
// error when the regime spread alone already exceeds the target RSD (sigma
// would be imaginary).
func (p Profile) calibrate() (calibration, error) {
	if err := p.Validate(); err != nil {
		return calibration{}, err
	}
	pi := p.Stationary()
	var m1, m2 float64
	for i, s := range p.States {
		m1 += pi[i] * s.RelMean
		m2 += pi[i] * s.RelMean * s.RelMean
	}
	scale := p.TargetMeanMbps / m1
	means := make([]float64, len(p.States))
	for i, s := range p.States {
		means[i] = s.RelMean * scale
	}
	// Marginal: bw = mean_i * X with E[X]=1, E[X^2]=exp(sigma^2).
	// E[bw] = scale*m1 = target. E[bw^2] = scale^2*m2*exp(sigma^2).
	// RSD^2 + 1 = E[bw^2]/E[bw]^2 = (m2/m1^2)*exp(sigma^2).
	stateRatio := m2 / (m1 * m1)
	want := 1 + p.TargetRSD*p.TargetRSD
	if want < stateRatio {
		return calibration{}, fmt.Errorf("tracegen: profile %q regime spread (ratio %v) exceeds target RSD %v", p.Name, stateRatio, p.TargetRSD)
	}
	sigma := math.Sqrt(math.Log(want / stateRatio))
	return calibration{means: means, pi: pi, sigma: sigma}, nil
}

// AnalyticMoments returns the calibrated stationary mean and RSD (which equal
// the profile targets by construction); exposed for the Figure 9 report.
func (p Profile) AnalyticMoments() (mean, rsd float64, err error) {
	if _, err := p.calibrate(); err != nil {
		return 0, 0, err
	}
	return p.TargetMeanMbps, p.TargetRSD, nil
}

// Session generates one session trace of the given duration. Sessions with
// different indices are statistically independent; the same (profile, seed,
// index) always yields the same trace.
func (p Profile) Session(length units.Seconds, seed uint64, index int) (*trace.Trace, error) {
	cal, err := p.calibrate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, uint64(index)*0x9e3779b97f4a7c15+1))
	seconds := float64(length)
	steps := int(math.Ceil(seconds / p.StepSeconds))
	tr := &trace.Trace{}
	tr.Grow(steps)

	// Draw the initial regime from the stationary distribution.
	state := sampleIndex(rng, cal.pi)
	// Initialize the AR(1) log-multiplier at stationarity:
	// log X ~ N(-sigma^2/2, sigma^2).
	mu := -cal.sigma * cal.sigma / 2
	logX := mu + cal.sigma*rng.NormFloat64()
	innovSD := cal.sigma * math.Sqrt(1-p.AR*p.AR)
	ramp := p.RampRate
	if ramp <= 0 {
		ramp = 0.35
	}
	if ramp > 1 {
		ramp = 1
	}
	effMean := cal.means[state]

	remaining := seconds
	for i := 0; i < steps; i++ {
		dur := p.StepSeconds
		if dur > remaining {
			dur = remaining
		}
		bw := effMean * math.Exp(logX)
		tr.Append(trace.Sample{Duration: units.Seconds(dur), Mbps: units.Mbps(bw)})
		remaining -= dur

		// Evolve regime (with a smooth transition ramp) and multiplier.
		state = sampleIndex(rng, p.Transition[state])
		effMean += (cal.means[state] - effMean) * ramp
		logX = mu + p.AR*(logX-mu) + innovSD*rng.NormFloat64()
	}
	return tr, nil
}

func sampleIndex(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Dataset is a generated collection of equal-length sessions.
type Dataset struct {
	Name     string
	Sessions []*trace.Trace
}

// Generate produces a dataset of the given number of sessions, each
// sessionLength long (the paper uses 10-minute sessions).
func Generate(p Profile, sessions int, sessionLength units.Seconds, seed uint64) (*Dataset, error) {
	if sessions <= 0 {
		return nil, fmt.Errorf("tracegen: non-positive session count %d", sessions)
	}
	ds := &Dataset{Name: p.Name, Sessions: make([]*trace.Trace, 0, sessions)}
	for i := 0; i < sessions; i++ {
		tr, err := p.Session(sessionLength, seed, i)
		if err != nil {
			return nil, err
		}
		ds.Sessions = append(ds.Sessions, tr)
	}
	return ds, nil
}

// MeanMbps returns the pooled mean bandwidth across all sessions.
func (d *Dataset) MeanMbps() units.Mbps {
	var sum units.Megabits
	var dur units.Seconds
	for _, s := range d.Sessions {
		sum += s.MeanMbps().MegabitsIn(s.Duration())
		dur += s.Duration()
	}
	if dur == 0 {
		return 0
	}
	return sum.Over(dur)
}

// RSD returns the pooled relative standard deviation of bandwidth across all
// sessions.
func (d *Dataset) RSD() float64 {
	mean := float64(d.MeanMbps())
	if mean == 0 {
		return 0
	}
	var ss, dur float64
	for _, s := range d.Sessions {
		for _, sample := range s.Samples() {
			dv := float64(sample.Mbps) - mean
			ss += dv * dv * float64(sample.Duration)
			dur += float64(sample.Duration)
		}
	}
	if dur == 0 {
		return 0
	}
	return math.Sqrt(ss/dur) / mean
}

// QuartilesByRSD splits the sessions into four buckets by per-session RSD,
// ascending (Q1 = most stable, Q4 = most volatile), as in Figure 10.
// It requires at least four sessions.
func (d *Dataset) QuartilesByRSD() [][]*trace.Trace {
	n := len(d.Sessions)
	if n < 4 {
		return nil
	}
	sorted := make([]*trace.Trace, n)
	copy(sorted, d.Sessions)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RSD() < sorted[j].RSD() })
	out := make([][]*trace.Trace, 4)
	for q := 0; q < 4; q++ {
		lo := q * n / 4
		hi := (q + 1) * n / 4
		out[q] = sorted[lo:hi]
	}
	return out
}

// Subset returns a deterministic pseudo-random subset of k sessions (or all
// sessions when k >= len), used for the reduced-scale experiments.
func (d *Dataset) Subset(k int, seed uint64) []*trace.Trace {
	n := len(d.Sessions)
	if k >= n {
		return d.Sessions
	}
	idx := rand.New(rand.NewPCG(seed, 0xfeed)).Perm(n)[:k]
	sort.Ints(idx)
	out := make([]*trace.Trace, k)
	for i, j := range idx {
		out[i] = d.Sessions[j]
	}
	return out
}

// FilterMeanBelow returns the sessions whose mean throughput is below the
// threshold, mirroring the prototype evaluation's selection of challenging
// sessions with mean throughput under 2 Mb/s (§6.2.1).
func (d *Dataset) FilterMeanBelow(mbps float64) []*trace.Trace {
	var out []*trace.Trace
	for _, s := range d.Sessions {
		if s.MeanMbps() < units.Mbps(mbps) {
			out = append(out, s)
		}
	}
	return out
}

// StepDown returns a deterministic pathological trace used to reproduce the
// RobustMPC failure mode of Figure 3: comfortable bandwidth for headSeconds,
// then a hard drop to lowMbps that forces the controller to choose between
// switching down and rebuffering.
func StepDown(highMbps, lowMbps, headSeconds, tailSeconds float64) *trace.Trace {
	return trace.New([]trace.Sample{
		{Duration: units.Seconds(headSeconds), Mbps: units.Mbps(highMbps)},
		{Duration: units.Seconds(tailSeconds), Mbps: units.Mbps(lowMbps)},
	})
}
