package nofloat64wire_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/nofloat64wire"
)

func TestCrossPackageLaundering(t *testing.T) {
	linttest.Run(t, nofloat64wire.Analyzer, "core")
}

func TestWirePackageClean(t *testing.T) {
	linttest.Run(t, nofloat64wire.Analyzer, "proto")
}

func TestUntaggedWirePackage(t *testing.T) {
	linttest.Run(t, nofloat64wire.Analyzer, "trace")
}

func TestSelfGrantedDirective(t *testing.T) {
	linttest.Run(t, nofloat64wire.Analyzer, "badwire")
}

func TestIsWireBoundary(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/proto", true},
		{"repro/internal/httpseg", true},
		{"repro/internal/trace", true},
		{"repro/internal/trace_test", true},
		{"repro/internal/telemetry", true},
		{"repro/internal/tracegen", false},
		{"repro/internal/core", false},
		{"proto", true},
		{"sink", false},
	}
	for _, c := range cases {
		if got := nofloat64wire.IsWireBoundary(c.path); got != c.want {
			t.Errorf("IsWireBoundary(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
