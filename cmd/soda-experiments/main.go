// Command soda-experiments regenerates the paper's tables and figures and
// writes the text reports to stdout (or a directory with -out). It is the one
// front end for the internal/experiments drivers: results/ is its output at
// the default scale, and `make results-check` fails when a regenerated report
// differs from the committed one.
//
// Usage:
//
//	soda-experiments [-only fig10,fig12] [-out results/] [-scale 2]
//	soda-experiments -only fig10 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	only := flag.String("only", "", "comma-separated subset (fig1..fig13, table1, oracle, regret, monotone, ablations)")
	out := flag.String("out", "", "directory to write per-experiment reports (default: stdout)")
	scaleFactor := flag.Float64("scale", 0, "multiplier for the default session and sample counts")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	scale := experiments.DefaultScale().Scaled(*scaleFactor)
	scale.Telemetry = prof.Collector()
	// Table 1 is built from the fig10 and fig12 results of the same run, and
	// computes them itself only when they were not selected.
	var fig10 *experiments.Figure10Result
	var fig12 *experiments.Figure12Result

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	type runner struct {
		name string
		run  func() (string, error)
	}
	runners := []runner{
		{"fig1", func() (string, error) { r, err := experiments.Figure01(scale); return render(r, err) }},
		{"fig2", func() (string, error) { return experiments.Figure02().Render(), nil }},
		{"fig3", func() (string, error) { r, err := experiments.Figure03(); return render(r, err) }},
		{"fig4", func() (string, error) { r, err := experiments.Figure04(); return render(r, err) }},
		{"fig5", func() (string, error) { return experiments.Figure05().Render(), nil }},
		{"fig6", func() (string, error) { r, err := experiments.Figure06(); return render(r, err) }},
		{"fig7", func() (string, error) { r, err := experiments.Figure07(scale); return render(r, err) }},
		{"fig8", func() (string, error) { return experiments.Figure08(scale).Render(), nil }},
		{"fig9", func() (string, error) { r, err := experiments.Figure09(scale); return render(r, err) }},
		{"fig10", func() (string, error) { r, err := experiments.Figure10(scale); fig10 = r; return render(r, err) }},
		{"fig11", func() (string, error) { r, err := experiments.Figure11(scale); return render(r, err) }},
		{"fig12", func() (string, error) { r, err := experiments.Figure12(scale); fig12 = r; return render(r, err) }},
		{"fig13", func() (string, error) { r, err := experiments.Figure13(scale); return render(r, err) }},
		{"table1", func() (string, error) {
			var err error
			if fig10 == nil {
				if fig10, err = experiments.Figure10(scale); err != nil {
					return "", err
				}
			}
			if fig12 == nil {
				if fig12, err = experiments.Figure12(scale); err != nil {
					return "", err
				}
			}
			return experiments.Table01(fig10, fig12).Render(), nil
		}},
		{"oracle", func() (string, error) { r, err := experiments.OracleGap(scale); return render(r, err) }},
		{"regret", func() (string, error) { r, err := experiments.TheoremRegret(); return render(r, err) }},
		{"monotone", func() (string, error) { r, err := experiments.TheoremMonotone(); return render(r, err) }},
		{"ablations", func() (string, error) {
			var parts []string
			for _, run := range []func(experiments.Scale) (*experiments.AblationResult, error){
				experiments.AblationTargetFraction,
				experiments.AblationEpsilon,
				experiments.AblationSwitchingWeight,
				experiments.AblationHorizonQoE,
				experiments.AblationAbandonment,
				experiments.AblationPredictor,
			} {
				r, err := run(scale)
				if err != nil {
					return "", err
				}
				parts = append(parts, r.Render())
			}
			r, err := experiments.UltraLowLatency(scale)
			if err != nil {
				return "", err
			}
			parts = append(parts, r.Render())
			return strings.Join(parts, "\n"), nil
		}},
	}

	failed := false
	for _, r := range runners {
		if !want(r.name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", r.name)
		report, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		if *out == "" {
			fmt.Println(report)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			break
		}
		path := filepath.Join(*out, r.name+".txt")
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

type renderer interface{ Render() string }

func render(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
