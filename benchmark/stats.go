package main

import (
	"cmp"
	"math"
	"slices"
)

// sample is a measured series element: exact nanoseconds or a derived cost.
type sample interface{ ~int64 | ~float64 }

// nearestRank returns the exact q-quantile of an ascending slice by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. No bucketing is involved, so the value is one of the samples.
func nearestRank[T sample](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns values sorted ascending, leaving values untouched.
func sortedCopy[T sample](values []T) []T {
	s := slices.Clone(values)
	slices.Sort(s)
	return s
}

// quietShare is the share of a timed phase's windows its timings are taken
// over. The host's other tenants take part of the core for stretches from
// under a millisecond to minutes, and the program then runs up to twice as
// slowly for that long; a timing over the quietest tenth of many short
// windows measures the program's own cost, which is what a change to it
// moves, and repeats from run to run where a whole-phase median does not.
const quietShare = 0.1

// quietWindows cuts series into consecutive windows of size samples (a
// shorter tail is dropped), ranks the windows by their median and returns
// the samples of the quietest quietShare of them, at least one window.
func quietWindows[T sample](series []T, size int) []T {
	size = max(1, min(size, len(series)))
	n := len(series) / size
	if n == 0 {
		return nil
	}
	type window struct {
		at  int
		mid T
	}
	ws := make([]window, n)
	for i := range ws {
		w := sortedCopy(series[i*size : (i+1)*size])
		ws[i] = window{at: i * size, mid: nearestRank(w, 0.5)}
	}
	slices.SortStableFunc(ws, func(a, b window) int { return cmp.Compare(a.mid, b.mid) })
	keep := max(1, int(quietShare*float64(n)))
	out := make([]T, 0, keep*size)
	for _, w := range ws[:keep] {
		out = append(out, series[w.at:w.at+size]...)
	}
	return out
}

// quietRepeat is the quietest-share quantile of one unit's repeated
// timings: the cost of a session replayed once per round, say.
func quietRepeat[T sample](repeats []T) T {
	return nearestRank(sortedCopy(repeats), quietShare)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, the estimator the benchmark's acceptance rule
// is written against. It needs at least two values; one value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// mean is the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return ratio(sum, float64(len(values)))
}

// ratio is a/b, or 0 when b is 0 — a rate over an empty denominator (no
// lookups, no solves) reads as "no such work", not as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
