package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRunInProcess drives the CLI end to end against an in-process service:
// report written, gate evaluated, both modes and both gate outcomes, the
// p99 and the rejection gates each failing a run.
func TestRunInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-mode", "open", "-sessions", "50", "-requests", "500", "-rps", "50000",
		"-seed", "7", "-out", out, "-max-p99-ms", "1000", "-max-rejected-pct", "0",
	}, os.Stdout)
	if err != nil {
		t.Fatalf("open-loop run failed: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode     string `json:"mode"`
		Requests uint64 `json:"requests"`
		OK       uint64 `json:"ok"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, raw)
	}
	if rep.Mode != "open" || rep.Requests != 500 || rep.OK != 500 {
		t.Errorf("report = %+v", rep)
	}

	// An impossible p99 threshold must fail the run.
	err = run([]string{"-sessions", "4", "-requests", "100", "-max-p99-ms", "0.000001"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "p99") {
		t.Errorf("impossible p99 gate did not fail: %v", err)
	}

	// A zero rejection budget must fail a run that rejects traffic: one
	// client, rate limit 1 rps, so most of the 50 requests are 429s.
	err = run([]string{"-sessions", "1", "-requests", "50", "-rps-per-client", "1",
		"-max-p99-ms", "10000", "-max-rejected-pct", "0"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("rejection gate did not fail: %v", err)
	}
}

// TestBaselineThresholds covers the loadgen gate's committed thresholds:
// `make loadgen-gate` and CI's loadgen step pass the same three flags, and a
// run gated by exactly those flags still fails when it rejects traffic.
func TestBaselineThresholds(t *testing.T) {
	makeFlags := gateFlags(t, filepath.Join("..", "..", "Makefile"))
	ciFlags := gateFlags(t, filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if strings.Join(makeFlags, " ") != strings.Join(ciFlags, " ") {
		t.Fatalf("Makefile gates loadgen with %v, CI with %v", makeFlags, ciFlags)
	}

	// One client at 1 rps, so most of the 50 requests are 429s.
	args := append([]string{"-sessions", "1", "-requests", "50", "-rps-per-client", "1"}, makeFlags...)
	err := run(args, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("committed rejection gate did not fail: %v", err)
	}
}

// gateFlags returns the -max-p99-ms, -max-rejected-pct and
// -max-incidents-per-1k flags, with their values, from the one line of path
// that passes them.
func gateFlags(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(string(raw), "\n") {
		if strings.Contains(l, "-max-p99-ms") {
			if line != "" {
				t.Fatalf("%s: more than one line passes -max-p99-ms", path)
			}
			line = l
		}
	}
	fields := strings.Fields(line)
	var flags []string
	for _, name := range []string{"-max-p99-ms", "-max-rejected-pct", "-max-incidents-per-1k"} {
		i := slices.Index(fields, name)
		if i < 0 || i+1 == len(fields) {
			t.Fatalf("%s: no %s threshold in %q", path, name, line)
		}
		if _, err := strconv.ParseFloat(fields[i+1], 64); err != nil {
			t.Fatalf("%s: %s %q: %v", path, name, fields[i+1], err)
		}
		flags = append(flags, name, fields[i+1])
	}
	return flags
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-profile", "bogus"},
		{"-ladder", "bogus"},
		{"-requests", "0"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
