package prod

import (
	"strings"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/video"

	// Controller registrations.
	_ "repro/internal/baseline"
)

func TestFamiliesValid(t *testing.T) {
	fams := Families()
	if len(fams) != 3 {
		t.Fatalf("families = %d", len(fams))
	}
	for _, f := range fams {
		if err := f.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
	// Volatility ordering: html5 most volatile, set-top least (§6.3).
	if !(fams[0].Profile.TargetRSD > fams[1].Profile.TargetRSD &&
		fams[1].Profile.TargetRSD > fams[2].Profile.TargetRSD) {
		t.Error("device family volatility ordering violated")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SessionsPerArm = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero sessions accepted")
	}
	cfg = DefaultConfig()
	cfg.Treatment = "no-such-controller"
	cfg.SessionsPerArm = 2
	cfg.SessionLength = 60
	if _, err := Run(cfg); err == nil {
		t.Error("unknown treatment controller accepted")
	}
}

func TestABExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("A/B experiment is slow")
	}
	cfg := DefaultConfig()
	cfg.SessionsPerArm = 10
	cfg.SessionLength = 300
	reports, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.Treatment.Sessions != 10 || r.Control.Sessions != 10 {
			t.Errorf("%s: arm sizes %d/%d", r.Family, r.Treatment.Sessions, r.Control.Sessions)
		}
		// SODA's headline production result: substantially less switching
		// than the tuned baseline on every family (Fig. 13).
		if r.SwitchDelta >= 0 {
			t.Errorf("%s: switching delta %+.1f%%, want negative", r.Family, 100*r.SwitchDelta)
		}
		// And no viewing-duration regression.
		if r.ViewingDelta < -0.05 {
			t.Errorf("%s: viewing delta %+.1f%%", r.Family, 100*r.ViewingDelta)
		}
		if !strings.Contains(r.String(), r.Family) {
			t.Errorf("report string %q", r.String())
		}
	}
}

func TestRelHelper(t *testing.T) {
	if rel(110.0, 100.0) != 0.1 {
		t.Errorf("rel = %v", rel(110.0, 100.0))
	}
	if rel(0.0, 0.0) != 0 || rel(5.0, 0.0) != 1 {
		t.Error("degenerate rel cases")
	}
}

// TestSODAArmAllocatesOncePerSession pins that a SODA arm validates and
// builds its policy once: after the first session, each session allocates
// only its controller. The arm's sessions share a solve cache.
func TestSODAArmAllocatesOncePerSession(t *testing.T) {
	ladder := video.PrimeVideo()
	newCtrl, err := armFactory("soda", ladder)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := newCtrl().(*core.Controller)
	ctrl.Decide(&abr.Context{
		Buffer:    units.Seconds(8),
		BufferCap: units.Seconds(20),
		PrevRung:  2,
		Ladder:    ladder,
		Predict:   func(units.Seconds) units.Mbps { return units.Mbps(5) },
	})
	if ctrl.SolveStats().SharedLookups == 0 {
		t.Fatal("the SODA arm has no shared solve cache")
	}
	if got := testing.AllocsPerRun(100, func() { newCtrl() }); got != 1 {
		t.Errorf("a SODA arm session allocates %g times, want 1", got)
	}
}
