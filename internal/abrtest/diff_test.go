package abrtest

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestDiffRuns pins the divergence detector the bit-identity contracts rely
// on: every field the conformance suites compare must actually be compared,
// and identical results must diff to "".
func TestDiffRuns(t *testing.T) {
	base := sim.Result{
		Rungs:    []int{0, 1, 2, 1},
		Waits:    3,
		Abandons: 1,
		Metrics:  qoe.Metrics{Score: 2.5, Switches: 2, RebufferSec: units.Seconds(0.5)},
	}
	cases := []struct {
		name   string
		mutate func(*sim.Result)
		want   string // substring of the diff, "" for identical
	}{
		{"identical", func(r *sim.Result) {}, ""},
		{"rung-count", func(r *sim.Result) { r.Rungs = r.Rungs[:3] }, "rung counts differ"},
		{"rung-value", func(r *sim.Result) { r.Rungs[2] = 0 }, "decision 2"},
		{"waits", func(r *sim.Result) { r.Waits++ }, "waits/abandons differ"},
		{"abandons", func(r *sim.Result) { r.Abandons++ }, "waits/abandons differ"},
		{"metrics", func(r *sim.Result) { r.Metrics.Score = 0 }, "metrics differ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := base
			other.Rungs = append([]int(nil), base.Rungs...)
			tc.mutate(&other)
			got := diffRuns(base, other)
			if tc.want == "" {
				if got != "" {
					t.Fatalf("identical results diffed: %q", got)
				}
				return
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("diff %q does not mention %q", got, tc.want)
			}
		})
	}
}

// TestTwinChecksCanFail pins the two checks the twin contracts rest on:
// the first differing decision is found, and the table audit rejects every
// broken set of books.
func TestTwinChecksCanFail(t *testing.T) {
	want := [][]int{{0, 1, 2}, {3, 3, 3}}
	if _, _, differ := mismatch(want, [][]int{{0, 1, 2}, {3, 3, 3}}); differ {
		t.Error("identical decisions reported as differing")
	}
	if i, j, differ := mismatch(want, [][]int{{0, 1, 2}, {3, 2, 3}}); !differ || i != 1 || j != 1 {
		t.Errorf("mismatch = %d, %d, %v, want stream 1 decision 1", i, j, differ)
	}
	for _, tc := range []struct {
		name                     string
		lookups, hits, fallbacks uint64
		want                     string // substring of the error, "" for sound books
	}{
		{"sound", 10, 7, 3, ""},
		{"not table-backed", 0, 0, 0, "no table lookups"},
		{"books broken", 10, 7, 2, "books broken"},
		{"no hits", 3, 0, 3, "no table hits"},
		{"no fallbacks", 7, 7, 0, "no table fallbacks"},
	} {
		err := tableTrafficError(core.SolveStats{TableLookups: tc.lookups, TableHits: tc.hits, TableFallbacks: tc.fallbacks})
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: tableTrafficError = %v, want %q", tc.name, err, tc.want)
		}
	}
}
