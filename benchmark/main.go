// Command benchmark is the SODA stack's end-to-end benchmark. It drives the
// public entry points the shipped programs wire up — httpseg.DecideService
// as soda-server builds it, sim.Fleet as soda-sim -fleet builds it, and
// sim.RunMany with the Figure 10 SODA arm — on four workloads, checks each
// run's outputs against a plain reference, and prints one JSON result line.
//
// Run it from the repository root; benchmark/run.sh builds and runs it:
//
//	bash benchmark/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload fleet --trace 1
//	bash benchmark/run.sh --workload dataset --runs 10 --out base.jsonl
//	bash benchmark/run.sh --compare base.jsonl head.jsonl
//
// BENCHMARK.json names the workloads and every metric with its unit,
// direction and regression bound; README.md describes them and the A/B
// procedure.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run; sizes each timed phase's fixed amount of work")
	traced := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run; 0: the end-to-end metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition: metric units, directions and bounds")
	runs := flag.Int("runs", 0, "run this many times, each in a fresh process, and print every metric's median and quartiles")
	out := flag.String("out", "", "with -runs: append one record per run to this JSONL file")
	compare := flag.Bool("compare", false, "compare two record files (base head) written by -runs -out")
	flag.Parse()

	s, err := loadSpec(*specPath)
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two record files: base head"))
		}
		regressed, err := compareFiles(os.Stdout, s, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || !s.hasWorkload(*workload) {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	if *runs > 0 {
		if err := repeat(os.Stdout, s, *runs, *out, *specPath, *workload, *seed, *seconds, *traced); err != nil {
			fail(err)
		}
		return
	}
	rec, err := runOnce(s, *workload, runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1})
	if err != nil {
		fail(err)
	}
	if rec.Diagnostics != nil {
		line, _ := json.Marshal(map[string]any{"diagnostics": rec.Diagnostics})
		fmt.Println(string(line))
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// record is one run as the -runs mode stores it.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Result      *result            `json:"result"`
}

// runOnce runs one workload in this process. A failed correctness check is
// reported on stderr and in the result's correct field.
func runOnce(s *spec, name string, c runConfig) (*record, error) {
	o, err := workloads[name](c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := buildResult(s, o, c.traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.checkErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: correctness check failed: %v\n", name, o.checkErr)
	}
	return &record{Workload: name, Seed: c.seed, Traced: c.traced, Diagnostics: o.diag, Result: res}, nil
}

// repeat runs the workload n times, each in a fresh process of this binary,
// optionally appends the records to out, and prints each metric's median
// and quartiles.
func repeat(w io.Writer, s *spec, n int, out, specPath, name string, seed uint64, seconds float64, traced int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []*record
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-spec", specPath, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		rec, err := parseRunOutput(stdout)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		rec.Workload, rec.Seed, rec.Traced = name, seed, traced == 1
		recs = append(recs, rec)
	}
	if out != "" {
		if err := appendRecords(out, recs); err != nil {
			return err
		}
	}
	summarize(w, s, recs)
	return nil
}

// parseRunOutput reads a run's stdout: the result on the last line, the
// optional diagnostics line before it.
func parseRunOutput(stdout []byte) (*record, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	rec := &record{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil || rec.Result == nil {
		return nil, fmt.Errorf("no result line in the run's output")
	}
	if len(lines) > 1 {
		var d struct {
			Diagnostics map[string]float64 `json:"diagnostics"`
		}
		if json.Unmarshal([]byte(lines[len(lines)-2]), &d) == nil {
			rec.Diagnostics = d.Diagnostics
		}
	}
	return rec, nil
}

func appendRecords(path string, recs []*record) error {
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("%s: malformed record", path)
		}
		recs = append(recs, &r)
	}
	return recs, sc.Err()
}
