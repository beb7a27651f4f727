package tracegen

import (
	"math"
	"testing"

	"repro/internal/trace"

	"repro/internal/units"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	base := Puffer()

	noStates := base
	noStates.States = nil
	noStates.Transition = nil
	if noStates.Validate() == nil {
		t.Error("empty states not caught")
	}

	badRows := base
	badRows.Transition = badRows.Transition[:2]
	if badRows.Validate() == nil {
		t.Error("wrong row count not caught")
	}

	badSum := Puffer()
	badSum.Transition = [][]float64{
		{0.5, 0.2, 0.1},
		{0.02, 0.97, 0.01},
		{0.01, 0.03, 0.96},
	}
	if badSum.Validate() == nil {
		t.Error("non-stochastic row not caught")
	}

	badMean := Puffer()
	badMean.States = []State{{1}, {0}, {0.5}}
	if badMean.Validate() == nil {
		t.Error("non-positive state mean not caught")
	}

	badAR := Puffer()
	badAR.AR = 1.0
	if badAR.Validate() == nil {
		t.Error("AR=1 not caught")
	}

	badStep := Puffer()
	badStep.StepSeconds = 0
	if badStep.Validate() == nil {
		t.Error("zero step not caught")
	}

	badTargets := Puffer()
	badTargets.TargetMeanMbps = -1
	if badTargets.Validate() == nil {
		t.Error("negative target mean not caught")
	}
}

func TestStationaryDistribution(t *testing.T) {
	for _, p := range Profiles() {
		pi := p.Stationary()
		sum := 0.0
		for _, v := range pi {
			if v < 0 {
				t.Errorf("%s: negative stationary prob %v", p.Name, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: stationary sums to %v", p.Name, sum)
		}
		// pi must be a fixed point of the transition matrix.
		n := len(pi)
		for j := 0; j < n; j++ {
			got := 0.0
			for i := 0; i < n; i++ {
				got += pi[i] * p.Transition[i][j]
			}
			if math.Abs(got-pi[j]) > 1e-9 {
				t.Errorf("%s: stationary not fixed point at %d: %v vs %v", p.Name, j, got, pi[j])
			}
		}
	}
}

func TestCalibrationInfeasible(t *testing.T) {
	p := Puffer()
	// Target RSD far below the regime spread is infeasible.
	p.TargetRSD = 0.01
	if _, err := p.Session(units.Seconds(60), 1, 0); err == nil {
		t.Error("infeasible calibration not detected")
	}
	if _, _, err := p.AnalyticMoments(); err == nil {
		t.Error("AnalyticMoments should propagate calibration error")
	}
}

func TestDatasetMatchesCalibrationTargets(t *testing.T) {
	// Generated datasets must match the Fig. 9 targets within sampling
	// tolerance. This is the core guarantee of the substitution documented
	// in DESIGN.md.
	for _, p := range Profiles() {
		ds, err := Generate(p, 60, units.Seconds(600), 12345)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		mean := float64(ds.MeanMbps())
		rsd := ds.RSD()
		if math.Abs(mean-p.TargetMeanMbps)/p.TargetMeanMbps > 0.10 {
			t.Errorf("%s: mean = %.2f Mb/s, target %.2f", p.Name, mean, p.TargetMeanMbps)
		}
		if math.Abs(rsd-p.TargetRSD)/p.TargetRSD > 0.15 {
			t.Errorf("%s: RSD = %.3f, target %.3f", p.Name, rsd, p.TargetRSD)
		}
	}
}

func TestDatasetOrdering(t *testing.T) {
	// The paper's datasets are strictly ordered: Puffer has the best network
	// conditions, then 5G, then 4G by mean; 5G is the most volatile.
	puffer, _ := Generate(Puffer(), 30, units.Seconds(600), 7)
	fiveG, _ := Generate(FiveG(), 30, units.Seconds(600), 7)
	fourG, _ := Generate(FourG(), 30, units.Seconds(600), 7)
	if !(puffer.MeanMbps() > fiveG.MeanMbps() && fiveG.MeanMbps() > fourG.MeanMbps()) {
		t.Errorf("mean ordering violated: %v %v %v", puffer.MeanMbps(), fiveG.MeanMbps(), fourG.MeanMbps())
	}
	if !(fiveG.RSD() > fourG.RSD() && fourG.RSD() > puffer.RSD()) {
		t.Errorf("RSD ordering violated: %v %v %v", puffer.RSD(), fourG.RSD(), fiveG.RSD())
	}
}

func TestSessionDeterminism(t *testing.T) {
	p := FourG()
	a, err := p.Session(units.Seconds(120), 99, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Session(units.Seconds(120), 99, 3)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Samples() {
		if a.Samples()[i] != b.Samples()[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	c, _ := p.Session(units.Seconds(120), 99, 4)
	same := a.Len() == c.Len()
	if same {
		identical := true
		for i := range a.Samples() {
			if a.Samples()[i] != c.Samples()[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different session indices produced identical traces")
		}
	}
}

func TestSessionDurationAndPositivity(t *testing.T) {
	p := FiveG()
	tr, err := p.Session(units.Seconds(601.5), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tr.Duration())-601.5) > 1e-9 {
		t.Errorf("duration = %v", tr.Duration())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	for i, s := range tr.Samples() {
		if s.Mbps <= 0 {
			t.Fatalf("sample %d bandwidth %v, must stay positive", i, s.Mbps)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Puffer(), 0, units.Seconds(600), 1); err == nil {
		t.Error("zero sessions not rejected")
	}
	bad := Puffer()
	bad.TargetRSD = 0.001
	if _, err := Generate(bad, 2, units.Seconds(600), 1); err == nil {
		t.Error("calibration error not propagated")
	}
}

func TestQuartilesByRSD(t *testing.T) {
	ds, err := Generate(Puffer(), 40, units.Seconds(300), 21)
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.QuartilesByRSD()
	if len(qs) != 4 {
		t.Fatalf("want 4 quartiles, got %d", len(qs))
	}
	total := 0
	var prevMax float64
	for qi, bucket := range qs {
		total += len(bucket)
		if len(bucket) == 0 {
			t.Errorf("quartile %d empty", qi)
			continue
		}
		// All sessions in a later quartile are at least as volatile as the
		// most volatile session in the previous quartile.
		minRSD := math.Inf(1)
		maxRSD := 0.0
		for _, s := range bucket {
			r := s.RSD()
			minRSD = math.Min(minRSD, r)
			maxRSD = math.Max(maxRSD, r)
		}
		if qi > 0 && minRSD < prevMax-1e-12 {
			t.Errorf("quartile %d overlaps previous: min %v < prev max %v", qi, minRSD, prevMax)
		}
		prevMax = maxRSD
	}
	if total != 40 {
		t.Errorf("quartiles lost sessions: %d", total)
	}

	small := &Dataset{Sessions: ds.Sessions[:3]}
	if small.QuartilesByRSD() != nil {
		t.Error("quartiles of <4 sessions should be nil")
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(FourG(), 20, units.Seconds(120), 3)
	sub := ds.Subset(5, 9)
	if len(sub) != 5 {
		t.Fatalf("subset size = %d", len(sub))
	}
	again := ds.Subset(5, 9)
	for i := range sub {
		if sub[i] != again[i] {
			t.Error("subset not deterministic")
		}
	}
	all := ds.Subset(100, 9)
	if len(all) != 20 {
		t.Errorf("oversized subset = %d sessions", len(all))
	}
}

func TestFilterMeanBelow(t *testing.T) {
	ds := &Dataset{Sessions: []*trace.Trace{
		trace.Constant(units.Mbps(1), units.Seconds(10)),
		trace.Constant(units.Mbps(5), units.Seconds(10)),
		trace.Constant(units.Mbps(1.5), units.Seconds(10)),
	}}
	got := ds.FilterMeanBelow(2)
	if len(got) != 2 {
		t.Errorf("filtered %d sessions, want 2", len(got))
	}
}

func TestStepDown(t *testing.T) {
	tr := StepDown(10, 1, 60, 140)
	if math.Abs(float64(tr.Duration())-200) > 1e-9 {
		t.Errorf("duration = %v", tr.Duration())
	}
	if tr.BandwidthAt(units.Seconds(30)) != 10 || tr.BandwidthAt(units.Seconds(100)) != 1 {
		t.Error("step-down shape wrong")
	}
}

func TestEmptyDatasetStats(t *testing.T) {
	var d Dataset
	if d.MeanMbps() != 0 || d.RSD() != 0 {
		t.Error("empty dataset stats should be 0")
	}
}

// TestProfileNamed looks every profile up by its own Name and rejects the
// spellings the table does not use.
func TestProfileNamed(t *testing.T) {
	for _, want := range Profiles() {
		p, err := ProfileNamed(want.Name)
		if err != nil || p.Name != want.Name || p.TargetMeanMbps != want.TargetMeanMbps {
			t.Errorf("ProfileNamed(%q) = %q, %v", want.Name, p.Name, err)
		}
	}
	for _, name := range []string{"", "fiveg", "fourg", "Puffer"} {
		if _, err := ProfileNamed(name); err == nil {
			t.Errorf("ProfileNamed(%q) accepted", name)
		}
	}
}
