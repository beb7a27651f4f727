package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// exactMetric reports whether a metric is a count the program makes that
// must repeat exactly across runs of one seed: every workload drives its
// layers from one goroutine, so even the shared cache fills in one order.
func exactMetric(name string) bool {
	switch name {
	case "served_pct", "qoe_score",
		"sessiontable.creates_per_decision", "sessiontable.evictions_per_decision",
		"sessiontable.rejected_capacity", "core.table_hit_pct", "core.table_fallbacks_per_decision",
		"core.memo_hit_pct", "core.shared_hit_pct", "core.solves_per_decision", "core.nodes_per_solve",
		"sim.fleet_waits_per_decision", "sim.fleet_stall_s_per_session_hour",
		"arena.high_water", "arena.slabs":
		return true
	}
	return false
}

// pacerValid applies the open-loop validity rule: the generator started its
// median request within 1 µs of schedule and achieved at least 99% of the
// offered rate. Runs without a pacer are valid.
func pacerValid(r *record) bool {
	if r.Diagnostics == nil {
		return true
	}
	return r.Diagnostics["lag_p50_us"] <= 1 && r.Diagnostics["achieved_pct"] >= 99
}

// metricValues collects one metric across records.
func metricValues(recs []*record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return math.Abs(ratio(q3-q1, q2))
}

// summarize prints each metric's median and quartiles over the runs, and
// flags counts that did not repeat exactly and runs that failed a check.
func summarize(w io.Writer, s *spec, recs []*record) {
	if len(recs) == 0 {
		return
	}
	name, traced := recs[0].Workload, recs[0].Traced
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (%d runs, seed %d)\tunit\tmedian\tq1\tq3\tspread\tbound\t\n", name, len(recs), recs[0].Seed)
	for _, m := range s.metrics(traced) {
		v := metricValues(recs, m.Name)
		q1, q2, q3 := quartiles(v)
		note := ""
		if exactMetric(m.Name) && q1 != q3 {
			note = "NOT EXACT"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", m.Name, m.Unit, q2, q1, q3,
			100*spread(v), boundText(m, traced), note)
	}
	_ = tw.Flush() // w is stdout; a failed write has nowhere to go
	for i, r := range recs {
		if !r.Result.Correct {
			fmt.Fprintf(w, "run %d failed its correctness check\n", i+1)
		}
		if !pacerValid(r) {
			fmt.Fprintf(w, "run %d invalid: pacer lag p50 %.3f µs, achieved %.2f%% of offered\n",
				i+1, r.Diagnostics["lag_p50_us"], r.Diagnostics["achieved_pct"])
		}
	}
}

func boundText(m metricSpec, traced bool) string {
	if traced {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", 100*m.Bound)
}

// compareFiles compares the untraced runs of two record sets, workload by
// workload, and reports whether any end-to-end metric regressed.
//
// Runs that failed a correctness check or whose pacer was invalid are
// dropped. For each metric, the head (change) median may be worse than the
// base (parent) median by at most the metric's bound; where either side's
// spread exceeds the bound the result is unresolved, unless every head run
// beats every base run. A gain needs the head to win at least nine tenths of
// the pairs (base run i against head run i, the order they were run in,
// alternating sides), ties counting for neither, and a median gap wider than
// the base's interquartile range.
func compareFiles(w io.Writer, s *spec, basePath, headPath string) (bool, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	bw, hw := validByWorkload(w, "base", base), validByWorkload(w, "head", head)
	var names []string
	for name := range bw {
		if _, ok := hw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase median\thead median\tchange\tbound\twins\tverdict\t\n")
	for _, name := range names {
		for _, m := range s.EndToEnd {
			b, h := metricValues(bw[name], m.Name), metricValues(hw[name], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := verdict(m, b, h)
			regressed = regressed || v.text == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%d/%d\t%s\t\n", name, m.Name,
				median(b), median(h), 100*ratio(median(h)-median(b), median(b)), 100*m.Bound,
				v.wins, v.pairs, v.text)
		}
	}
	return regressed, tw.Flush()
}

// validByWorkload groups the untraced, valid records by workload.
func validByWorkload(w io.Writer, side string, recs []*record) map[string][]*record {
	out := map[string][]*record{}
	for _, r := range recs {
		switch {
		case r.Traced:
		case !r.Result.Correct:
			fmt.Fprintf(w, "%s: dropped a %s run that failed its correctness check\n", side, r.Workload)
		case !pacerValid(r):
			fmt.Fprintf(w, "%s: dropped an invalid %s run (pacer lag p50 %.3f µs, achieved %.2f%%)\n",
				side, r.Workload, r.Diagnostics["lag_p50_us"], r.Diagnostics["achieved_pct"])
		default:
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

type metricVerdict struct {
	text        string
	wins, pairs int
}

// verdict applies the comparison rule to one metric's base and head values.
func verdict(m metricSpec, base, head []float64) metricVerdict {
	better := func(h, b float64) bool {
		if m.Better == "higher" {
			return h > b
		}
		return h < b
	}
	v := metricVerdict{pairs: min(len(base), len(head))}
	for i := 0; i < v.pairs; i++ {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	bm, hm := median(base), median(head)
	worse := ratio(hm-bm, math.Abs(bm))
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	q1, _, q3 := quartiles(base)
	switch {
	case math.Max(spread(base), spread(head)) > m.Bound:
		v.text = "unresolved"
		if allBetter {
			v.text = "better"
		}
	case worse > m.Bound:
		v.text = "REGRESSION"
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && better(hm, bm) && math.Abs(hm-bm) > q3-q1:
		v.text = "gain"
	default:
		v.text = "ok"
	}
	return v
}
