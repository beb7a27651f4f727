// Package telemetry is the observability layer of the reproduction: a
// stdlib-only metrics registry (atomic counters, gauges and log-linear
// histograms with Prometheus text exposition), a per-decision trace ring
// buffer with JSONL export, and a Collector bundling the standard SODA
// instruments.
//
// Two contracts shape the design:
//
//   - Purity: controllers never see the telemetry layer. Recording is
//     pull-based — harnesses (sim, prod, httpseg, the cmd binaries) snapshot
//     SolveStats/CacheStats after Decide returns and feed the collector from
//     the call site, so the purecontroller analyzer keeps holding.
//   - Zero allocation on the hot path: counter/gauge/histogram updates and
//     ring appends allocate nothing in steady state (gated by cmd/soda-bench),
//     and the per-session recorder batches its flushes so a dataset-scale
//     simulation pays well under 5% per decision.
//
// Metric names carry their units.* dimension as a suffix (_seconds, _mbps,
// ...), enforced at registration — the first step of the ROADMAP "typed wire
// schemas" item. The exposition encoder and the JSONL trace export speak raw
// float64 on purpose; the package is a sanctioned laundering site:
//
//soda:wire-boundary
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Unit names the units.* dimension a metric's values are denominated in.
// Registration enforces that a unit-carrying metric name ends in the unit's
// suffix (before the _total suffix for counters), so the exposition remains
// self-describing even though the wire format is unitless float64.
type Unit string

// The units the repository's typed scalars map onto.
const (
	None      Unit = ""
	USeconds  Unit = "seconds"
	UMinutes  Unit = "minutes"
	UMbps     Unit = "mbps"
	UMegabits Unit = "megabits"
)

// Label is one key=value metric dimension. Labels are fixed at registration;
// there is no dynamic label allocation on the update path.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// atomicFloat is a float64 updated via CAS on its bit pattern, so counters
// and gauges take float64 increments without locks or allocation.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative increments panic (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("telemetry: negative counter increment %g", v))
	}
	c.v.Add(v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add moves the gauge by v.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Every histogram shares one log-linear layout: each power-of-two octave
// (2^e, 2^(e+1)] of the covered range (2^-32, 2^32] splits into 2^minorBits
// equal-width buckets, and one underflow bucket (≤ 2^-32, which takes 0,
// negatives and NaN) plus one overflow bucket (> 2^32) close the ends. The
// range spans sub-nanosecond to century-scale seconds and every bitrate, so
// no call site picks buckets. A bucket's upper edge is at most 1 + 2^-minorBits
// = 1.125 times its lower edge, which is the error bound Quantile documents.
const (
	minorBits = 3
	minExp    = -32
	maxExp    = 32
	// mantissaShift keeps a float64's exponent and top minorBits mantissa
	// bits: the bucket key.
	mantissaShift = 52 - minorBits
	// keyBase is the key of the first finite bucket, (2^minExp, ...].
	keyBase = (minExp + 1023) << minorBits
	// numBuckets counts the finite buckets plus underflow and overflow.
	numBuckets = (maxExp-minExp)<<minorBits + 2
)

// Histogram is a log-linear histogram: per-bucket atomic counts plus an
// atomic sum. Observe indexes the bucket straight from the value's bit
// pattern and does two atomic updates — no scan, no locks, no allocation.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count(v)
	h.sum.Add(v)
}

// count adds v to its bucket but not to the sum; a batch caller adds its
// sum once.
func (h *Histogram) count(v float64) { h.counts[bucketIndex(v)].Add(1) }

// bucketIndex returns v's bucket: 0 is underflow, numBuckets-1 overflow.
// Buckets are upper-inclusive (lo, hi], so the key is taken from bits(v)-1:
// an exact edge such as a power of two lands in the bucket it closes.
func bucketIndex(v float64) int {
	switch {
	case !(v > 0x1p-32): // also NaN
		return 0
	case v > 0x1p32:
		return numBuckets - 1
	}
	return int((math.Float64bits(v)-1)>>mantissaShift) - keyBase + 1
}

// upperBound is the inclusive upper edge of bucket i < numBuckets-1: the
// float64 whose key is the next bucket's and whose lower mantissa bits are
// zero. The overflow bucket's edge is +Inf.
func upperBound(i int) float64 {
	return math.Float64frombits(uint64(keyBase+i) << mantissaShift)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket counts.
//
// The estimator is the conservative upper-edge rule: it finds the bucket
// containing the rank-⌈q·N⌉ observation and returns that bucket's upper
// edge, with no interpolation inside the bucket. Since every bucket (lo, hi]
// has hi ≤ 1.125·lo, the true q-quantile x, when it lies in (2^-32, 2^32],
// satisfies
//
//	x ≤ Quantile(q) ≤ 1.125·x,
//
// which is the convention the load gates want: a reported p99 below a
// threshold guarantees the true p99 is below it too, and overstates it by at
// most 12.5%. Pinned by TestHistogramQuantileBound and
// TestHistogramQuantileEstimatorTable; outside the range:
//
//   - empty histogram, or q out of range: returns 0;
//   - quantile in the underflow bucket (≤ 2^-32, including 0): 2^-32;
//   - quantile in the overflow bucket (> 2^32): 2^32, the largest finite
//     edge — returning +Inf would poison downstream arithmetic.
func (h *Histogram) Quantile(q float64) float64 {
	if q <= 0 || q > 1 {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	// rank is the 1-based index of the target observation under the usual
	// ceil(q*N) definition, computed without floats drifting at large N.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	var cum uint64
	for i := 0; i < numBuckets-1; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return upperBound(i)
		}
	}
	return upperBound(numBuckets - 2)
}

// series is one label-set instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: kind, unit, help and its per-label-set series.
type family struct {
	name   string
	help   string
	kind   kind
	unit   Unit
	order  []string
	series map[string]*series
}

// Registry holds metric families and hands out instruments. Registration is
// get-or-create: asking for the same name and label set again returns the
// existing instrument; re-registering a name with a different kind or unit
// panics (it is a programming error, not a runtime condition).
type Registry struct {
	mu sync.Mutex
	//soda:guard mu
	families map[string]*family
	//soda:guard mu
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or fetches) a counter. The name must end in _total; a
// unit-carrying counter must end in _<unit>_total.
func (r *Registry) Counter(name, help string, unit Unit, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, unit, labels)
	return s.c
}

// Gauge registers (or fetches) a gauge. A unit-carrying gauge must end in
// _<unit>.
func (r *Registry) Gauge(name, help string, unit Unit, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, unit, labels)
	return s.g
}

// Histogram registers (or fetches) a histogram. Every histogram has the one
// log-linear bucket layout, so there is nothing to choose.
func (r *Registry) Histogram(name, help string, unit Unit, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, unit, labels)
	return s.h
}

func (r *Registry) lookup(name, help string, k kind, unit Unit, labels []Label) *series {
	if err := CheckName(name, k == kindCounter, unit); err != nil {
		panic("telemetry: " + err.Error())
	}
	for _, l := range labels {
		if !nameOK(l.Key) {
			panic(fmt.Sprintf("telemetry: metric %s has invalid label key %q", name, l.Key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, unit: unit, series: map[string]*series{}}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.kind != k || fam.unit != unit {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s/%q (was %s/%q)",
			name, k, unit, fam.kind, fam.unit))
	}
	key := labelKey(labels)
	s := fam.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{}
		}
		fam.series[key] = s
		fam.order = append(fam.order, key)
	}
	return s
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\x00')
		sb.WriteString(l.Value)
		sb.WriteByte('\x01')
	}
	return sb.String()
}

// nameOK reports whether s is a legal metric or label-key name.
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CheckName validates a metric name against the registry's naming rule:
// legal identifier characters, counters end in _total, and a unit-carrying
// metric ends in _<unit> (immediately before _total for counters). It is
// exported so tests outside the package can assert the rule over a wired-up
// registry snapshot.
func CheckName(name string, counter bool, unit Unit) error {
	if !nameOK(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	base := name
	if counter {
		if !strings.HasSuffix(base, "_total") {
			return fmt.Errorf("counter %s must end in _total", name)
		}
		base = strings.TrimSuffix(base, "_total")
	}
	if unit != None && !strings.HasSuffix(base, "_"+string(unit)) {
		return fmt.Errorf("metric %s carries unit %q but lacks the _%s suffix", name, unit, unit)
	}
	return nil
}

// BucketCount is one cumulative histogram bucket of a snapshot. Only the
// edges of buckets that are non-empty in some series of the family appear,
// so a snapshot carries a few of the layout's buckets, every series of a
// family lists the same edges, and each count is exact at its edge. Another
// registry may list other edges for the same family. Summing across
// registries therefore takes the union of their edges; at an edge a series
// does not list, its count is the one at its next lower listed edge (0
// below the first). The +Inf bucket is omitted
// (MetricSnapshot.Count carries the total), keeping the snapshot
// JSON-encodable.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MetricSnapshot is one series' point-in-time state, the unit of both the
// -telemetry snapshot file and the unit-suffix tests.
type MetricSnapshot struct {
	Name    string        `json:"name"`
	Kind    string        `json:"kind"`
	Unit    Unit          `json:"unit,omitempty"`
	Help    string        `json:"help,omitempty"`
	Labels  []Label       `json:"labels,omitempty"`
	Value   float64       `json:"value,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Count   uint64        `json:"count,omitempty"`
}

// Snapshot returns the state of every registered series, families sorted by
// name, series in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	// The registry lock covers the family/series maps for the whole walk;
	// instrument values are atomics, so holding it while loading them is
	// cheap and keeps the walk consistent with concurrent registration.
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []MetricSnapshot
	for _, fam := range fams {
		// A histogram family lists every edge that is non-empty in any of its
		// series, so its series share one set of le values and summing their
		// buckets, as `sum by (le)` does, stays cumulative.
		var edges [numBuckets - 1]bool
		if fam.kind == kindHistogram {
			for _, s := range fam.series {
				for i := range edges {
					edges[i] = edges[i] || s.h.counts[i].Load() > 0
				}
			}
		}
		for _, key := range fam.order {
			s := fam.series[key]
			snap := MetricSnapshot{
				Name:   fam.name,
				Kind:   fam.kind.String(),
				Unit:   fam.unit,
				Help:   fam.help,
				Labels: s.labels,
			}
			switch fam.kind {
			case kindCounter:
				snap.Value = s.c.Value()
			case kindGauge:
				snap.Value = s.g.Value()
			case kindHistogram:
				var cum uint64
				for i, listed := range edges {
					cum += s.h.counts[i].Load()
					if listed {
						snap.Buckets = append(snap.Buckets, BucketCount{UpperBound: upperBound(i), Count: cum})
					}
				}
				snap.Count = cum + s.h.counts[numBuckets-1].Load()
				snap.Sum = s.h.Sum()
			}
			out = append(out, snap)
		}
	}
	return out
}
