package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("soda_things_total", "things", None)
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %g, want 3.5", got)
	}
	g := reg.Gauge("soda_level_seconds", "level", USeconds)
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %g, want 2.5", got)
	}
	// Get-or-create: same name returns the same instrument.
	if reg.Counter("soda_things_total", "things", None) != c {
		t.Fatal("re-registering the same counter returned a new instrument")
	}
}

func TestNegativeCounterAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter Add did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("soda_x_total", "", None).Add(-1)
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soda_h_seconds", "h", USeconds)
	for _, v := range []float64{0.5, 1, 1.0625, 1.125, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 106.6875 {
		t.Fatalf("sum = %g, want 106.6875", got)
	}
	snaps := reg.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	// Only the non-empty buckets appear, cumulatively: an edge value closes
	// its own bucket (1.125 shares (1, 1.125] with 1.0625), and 100 sits in
	// (96, 104], an eighth of the octave (64, 128].
	want := []BucketCount{{0.5, 1}, {1, 2}, {1.125, 4}, {3, 5}, {104, 6}}
	if !slices.Equal(snaps[0].Buckets, want) {
		t.Errorf("buckets = %v, want %v", snaps[0].Buckets, want)
	}
	if snaps[0].Count != 6 {
		t.Errorf("snapshot count = %d, want 6", snaps[0].Count)
	}

	// Boundary cases: the upper edge of the bucket each value lands in, and
	// values above the range in the overflow bucket.
	inf := math.Inf(1)
	for _, tc := range []struct{ v, le float64 }{
		{0, 0x1p-32}, {math.Copysign(0, -1), 0x1p-32}, {-1, 0x1p-32}, {math.NaN(), 0x1p-32},
		{math.SmallestNonzeroFloat64, 0x1p-32},
		{0x1p-32, 0x1p-32}, // the underflow bucket is upper-inclusive too
		{math.Nextafter(0x1p-32, 1), 0x1p-32 * 1.125},
		{0.25, 0.25}, {1, 1}, {2, 2}, {1024, 1024}, // powers of two close their bucket
		{math.Nextafter(1, 2), 1.125},
		{0x1p32, 0x1p32}, // the last finite bucket
	} {
		if got := upperBound(bucketIndex(tc.v)); got != tc.le {
			t.Errorf("value %g lands under edge %g, want %g", tc.v, got, tc.le)
		}
	}
	for _, v := range []float64{math.Nextafter(0x1p32, inf), 1e300, inf} {
		if got := bucketIndex(v); got != numBuckets-1 {
			t.Errorf("value %g lands in bucket %d, want the overflow bucket %d", v, got, numBuckets-1)
		}
	}
	// Every finite bucket (lo, hi]: edges ascend within the 1.125 ratio, an
	// edge lands in its own bucket and the next float in the next one.
	for i := 1; i < numBuckets-1; i++ {
		lo, hi := upperBound(i-1), upperBound(i)
		if !(hi > lo && hi <= 1.125*lo) {
			t.Fatalf("bucket %d = (%g, %g]: ratio %g", i, lo, hi, hi/lo)
		}
		if bucketIndex(hi) != i || bucketIndex(math.Nextafter(hi, inf)) != i+1 {
			t.Fatalf("bucket %d edge %g indexes to %d, next float to %d",
				i, hi, bucketIndex(hi), bucketIndex(math.Nextafter(hi, inf)))
		}
	}
}

// TestHistogramFamilySharesEdges pins that the series of one histogram
// family list the same le values, so their buckets sum, as Prometheus
// `sum by (le)` does, to counts that never decrease.
func TestHistogramFamilySharesEdges(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("soda_stage_seconds", "", USeconds, Label{Key: "stage", Value: "a"})
	b := reg.Histogram("soda_stage_seconds", "", USeconds, Label{Key: "stage", Value: "b"})
	reg.Histogram("soda_idle_seconds", "", USeconds).Observe(7) // another family's edges stay out
	a.Observe(0.25)
	a.Observe(1)
	b.Observe(0.5)
	b.Observe(1e12) // overflow: only in +Inf

	var stage []MetricSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name == "soda_stage_seconds" {
			stage = append(stage, s)
		}
	}
	if len(stage) != 2 {
		t.Fatalf("got %d stage series, want 2", len(stage))
	}
	wantA := []BucketCount{{0.25, 1}, {0.5, 1}, {1, 2}}
	wantB := []BucketCount{{0.25, 0}, {0.5, 1}, {1, 1}}
	if !slices.Equal(stage[0].Buckets, wantA) || !slices.Equal(stage[1].Buckets, wantB) {
		t.Fatalf("buckets a = %v, b = %v; want %v and %v", stage[0].Buckets, stage[1].Buckets, wantA, wantB)
	}
	var last uint64
	for i := range wantA {
		sum := stage[0].Buckets[i].Count + stage[1].Buckets[i].Count
		if sum < last {
			t.Fatalf("summed count fell to %d at le=%g", sum, wantA[i].UpperBound)
		}
		last = sum
	}
	if stage[1].Count != 2 {
		t.Errorf("series b count = %d, want 2", stage[1].Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soda_q_seconds", "q", USeconds)

	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}

	// 90 observations of 0.5 ms, 9 of 5 ms and 1 of 50 ms. Their buckets:
	// 0.0005 in (2^-11, 9·2^-14], 0.005 in (10·2^-11, 11·2^-11], 0.05 in
	// (12·2^-8, 13·2^-8].
	for i := 0; i < 90; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.005)
	}
	h.Observe(0.05)

	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 9 * 0x1p-14},  // rank 50 of 100 → first bucket
		{0.90, 9 * 0x1p-14},  // rank 90, exactly the first bucket's cumulative count
		{0.99, 11 * 0x1p-11}, // rank 99 → second bucket
		{0.999, 13 * 0x1p-8}, // rank 100 → third bucket
		{1, 13 * 0x1p-8},     // max observed bucket
		{0, 0},               // out of range
		{1.5, 0},             // out of range
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}

	// Overflow observations saturate at the largest finite edge.
	h2 := reg.Histogram("soda_q2_seconds", "q2", USeconds)
	h2.Observe(1e12)
	if got := h2.Quantile(0.99); got != 0x1p32 {
		t.Errorf("overflow-only Quantile(0.99) = %g, want 2^32 (largest finite edge)", got)
	}
}

// TestHistogramQuantileEstimatorTable pins the documented estimator contract
// — conservative upper edge, never interpolating — on the cases the doc
// comment calls out: empty histograms, q out of range, exact edges, and
// observations in the underflow and overflow buckets.
func TestHistogramQuantileEstimatorTable(t *testing.T) {
	reg := NewRegistry()
	cases := []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		{"empty histogram", nil, 0.5, 0},
		{"empty histogram p99", nil, 0.99, 0},
		{"q zero", []float64{1}, 0, 0},
		{"q above one", []float64{1}, 1.5, 0},
		{"exact edge reports itself", []float64{0.25}, 0.5, 0.25},
		{"just above an edge reports the next edge", []float64{math.Nextafter(0.25, 1)}, 0.5, 0.28125},
		{"p100 is the max's edge", []float64{1, 2, 3}, 1, 3},
		{"zeros report the underflow edge", []float64{0, 0}, 1, 0x1p-32},
		{"negative reports the underflow edge", []float64{-3}, 0.5, 0x1p-32},
		{"overflow only saturates at 2^32", []float64{1e10, 1e12}, 0.99, 0x1p32},
		{"mixed finite and overflow", []float64{0.5, 0.5, 0.5, 1e12}, 0.75, 0.5},
		{"mixed, quantile in overflow", []float64{0.5, 1e12}, 1, 0x1p32},
	}
	for i, tc := range cases {
		h := reg.Histogram(fmt.Sprintf("soda_qt%d_seconds", i), tc.name, USeconds)
		for _, v := range tc.obs {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileBound is the documented error bound as a property:
// over log-uniform samples, both spanning the covered range and packed into
// a few octaves, every Quantile(q) lies in [x, 1.125·x] for the exact
// nearest-rank quantile x.
func TestHistogramQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 40; trial++ {
		// Even trials span (2^-32, 2^32); odd ones span up to four octaves.
		lo, span := -32.0, 64.0
		if trial%2 == 1 {
			span = 4 * rng.Float64()
			lo = -32 + (64-span)*rng.Float64()
		}
		h := &Histogram{}
		xs := make([]float64, 1+rng.Intn(3000))
		for i := range xs {
			xs[i] = math.Exp2(lo + span*rng.Float64())
			h.Observe(xs[i])
		}
		slices.Sort(xs)
		for _, q := range qs {
			x := xs[int(math.Ceil(q*float64(len(xs))))-1]
			if got := h.Quantile(q); got < x || got > 1.125*x {
				t.Fatalf("trial %d, n=%d: Quantile(%g) = %g, exact nearest-rank %g (ratio %g)",
					trial, len(xs), q, got, x, got/x)
			}
		}
	}
}

// FuzzHistogram feeds an arbitrary float64 stream (8 bytes per value) into
// one histogram: it must not panic, must count every observation, must
// report quantiles that do not decrease as q grows, and must snapshot
// cumulative bucket counts that never decrease.
func FuzzHistogram(f *testing.F) {
	var seed []byte
	for _, v := range []float64{0, 1, 0x1p-32, 0x1p32, 3.5e-7, 12, math.NaN(), math.Inf(1), math.Inf(-1), -2, 1e300} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry()
		h := reg.Histogram("soda_fuzz_seconds", "", USeconds)
		n := uint64(0)
		for ; len(data) >= 8; data = data[8:] {
			h.Observe(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			n++
		}
		if got := h.Count(); got != n {
			t.Fatalf("Count = %d after %d observations", got, n)
		}
		prev := 0.0
		for q := 1.0 / 64; q <= 1; q += 1.0 / 64 {
			got := h.Quantile(q)
			if got < prev {
				t.Fatalf("Quantile(%g) = %g below a lower q's %g", q, got, prev)
			}
			prev = got
		}
		snap := reg.Snapshot()[0]
		var cum uint64
		for _, b := range snap.Buckets {
			if b.Count < cum {
				t.Fatalf("cumulative count fell to %d at le=%g", b.Count, b.UpperBound)
			}
			cum = b.Count
		}
		if snap.Count != n || cum > n {
			t.Fatalf("snapshot count %d, last bucket %d, observed %d", snap.Count, cum, n)
		}
	})
}

func TestRegistryValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Registry)
	}{
		{"counter without _total", func(r *Registry) { r.Counter("soda_things", "", None) }},
		{"unit counter without suffix", func(r *Registry) { r.Counter("soda_stall_total", "", USeconds) }},
		{"unit gauge without suffix", func(r *Registry) { r.Gauge("soda_buffer", "", USeconds) }},
		{"bad name", func(r *Registry) { r.Gauge("9bad-name", "", None) }},
		{"bad label key", func(r *Registry) { r.Gauge("soda_g", "", None, Label{Key: "bad-key", Value: "v"}) }},
		{"unit histogram without suffix", func(r *Registry) { r.Histogram("soda_latency", "", USeconds) }},
		{"bad histogram label key", func(r *Registry) {
			r.Histogram("soda_h_seconds", "", USeconds, Label{Key: "le-bad", Value: "v"})
		}},
		{"kind clash", func(r *Registry) {
			r.Counter("soda_x_total", "", None)
			r.Gauge("soda_x_total", "", None)
		}},
		{"unit clash", func(r *Registry) {
			r.Gauge("soda_y_seconds", "", USeconds)
			r.Gauge("soda_y_seconds", "", None)
		}},
		{"histogram kind clash", func(r *Registry) {
			r.Gauge("soda_z_seconds", "", USeconds)
			r.Histogram("soda_z_seconds", "", USeconds)
		}},
		{"histogram unit clash", func(r *Registry) {
			r.Histogram("soda_w_mbps", "", UMbps)
			r.Histogram("soda_w_mbps", "", None)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestCheckName(t *testing.T) {
	cases := []struct {
		name    string
		counter bool
		unit    Unit
		ok      bool
	}{
		{"soda_decisions_total", true, None, true},
		{"soda_rebuffer_seconds_total", true, USeconds, true},
		{"soda_buffer_level_seconds", false, USeconds, true},
		{"soda_rate_mbps", false, UMbps, true},
		{"soda_decisions", true, None, false},          // counter lacks _total
		{"soda_rebuffer_total", true, USeconds, false}, // unit suffix missing
		{"soda_buffer_level", false, USeconds, false},  // unit suffix missing
		{"soda_total_seconds", true, USeconds, false},  // suffixes in wrong order
		{"9leading_digit_total", true, None, false},    // bad identifier
		{"has-dash_total", true, None, false},          // bad identifier
	}
	for _, tc := range cases {
		err := CheckName(tc.name, tc.counter, tc.unit)
		if (err == nil) != tc.ok {
			t.Errorf("CheckName(%q, counter=%v, unit=%q) err=%v, want ok=%v",
				tc.name, tc.counter, tc.unit, err, tc.ok)
		}
	}
}

func TestConcurrentUpdatesAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("soda_n_total", "", None)
	h := reg.Histogram("soda_v_seconds", "", USeconds)
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(0.5)
				reg.Snapshot() // racing snapshots must stay consistent
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %g, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	c := NewCollector(nil, 64)
	rec := c.StartSession(0)
	for i := 0; i < 40; i++ {
		ev := DecisionEvent{
			Segment: int32(i), Rung: int16(i % 5), PrevRung: int16((i + 4) % 5),
			Buffer:     units.Seconds(float64(i%20) + 0.5),
			Throughput: units.Mbps(8),
			Bitrate:    units.Mbps(4),
			Solves:     1, Nodes: 12,
		}
		if rec.SampleLatency() {
			ev.Timed = true
			ev.SolveSeconds = 1e-6
		}
		rec.RecordDecision(&ev)
	}
	rec.RecordDecision(&DecisionEvent{Segment: 40, Rung: -1, PrevRung: 4, Buffer: units.Seconds(0.1), WaitSeconds: units.Seconds(0.5)})
	rec.Finish(SolverStats{Solves: 41, Nodes: 500, MemoLookups: 41, MemoHits: 3, SharedLookups: 41, SharedHits: 7},
		40, units.Seconds(1.25))

	var buf bytes.Buffer
	if err := c.Registry.WriteExposition(&buf); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	text := buf.String()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v\n%s", err, text)
	}
	want := map[string]string{
		"soda_decisions_total":         "counter",
		"soda_wait_decisions_total":    "counter",
		"soda_sessions_total":          "counter",
		"soda_segments_total":          "counter",
		"soda_rebuffer_seconds_total":  "counter",
		"soda_solver_solves_total":     "counter",
		"soda_solver_nodes_total":      "counter",
		"soda_shared_cache_hits_total": "counter",
		"soda_buffer_level_seconds":    "histogram",
		"soda_decided_bitrate_mbps":    "histogram",
		"soda_decide_latency_seconds":  "histogram",
	}
	for name, typ := range want {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("exposition missing family %s", name)
			continue
		}
		if fam.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, fam.Type, typ)
		}
		if fam.Samples == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	// The exposition lists only non-empty buckets: a handful of the layout's
	// 514, with ascending edges, cumulative counts that never decrease, and
	// +Inf equal to _count.
	for _, name := range []string{"soda_buffer_level_seconds", "soda_decided_bitrate_mbps", "soda_decide_latency_seconds"} {
		lastLe, lastCount, lines := math.Inf(-1), 0.0, 0
		for _, line := range strings.Split(text, "\n") {
			rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
			if !ok {
				continue
			}
			le, count, ok := strings.Cut(rest, `"} `)
			if !ok {
				t.Fatalf("malformed bucket line %q", line)
			}
			edge, err1 := strconv.ParseFloat(le, 64)
			n, err2 := strconv.ParseFloat(count, 64)
			if err1 != nil || err2 != nil || edge <= lastLe || n < lastCount {
				t.Fatalf("%s: bucket line %q after le=%g count %g", name, line, lastLe, lastCount)
			}
			lastLe, lastCount = edge, n
			lines++
		}
		if lines < 2 || lines > 30 || !math.IsInf(lastLe, 1) {
			t.Errorf("%s: %d bucket lines ending at le=%g, want a few sparse ones ending at +Inf", name, lines, lastLe)
		}
		if !strings.Contains(text, fmt.Sprintf("%s_count %g\n", name, lastCount)) {
			t.Errorf("%s: +Inf bucket %g does not match _count", name, lastCount)
		}
	}
	// Spot-check values survived the trip through the recorder's batching.
	if got := c.Decisions.Value(); got != 41 {
		t.Errorf("decisions = %g, want 41", got)
	}
	if got := c.Waits.Value(); got != 1 {
		t.Errorf("waits = %g, want 1", got)
	}
	if got := c.BufferLevel.Count(); got != 41 {
		t.Errorf("buffer observations = %d, want 41", got)
	}
	if got := c.Bitrate.Count(); got != 40 {
		t.Errorf("bitrate observations = %d, want 40", got)
	}
	if got := c.Nodes.Value(); got != 500 {
		t.Errorf("solver nodes = %g, want 500", got)
	}
	if got := c.Ring.Total(); got != 41 {
		t.Errorf("ring total = %d, want 41", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := []struct{ name, payload string }{
		{"duplicate family", "# TYPE a counter\n# TYPE a counter\n"},
		{"unknown type", "# TYPE a widget\n"},
		{"undeclared sample", "a_total 1\n"},
		{"bad value", "# TYPE a counter\na bogus\n"},
		{"bad name", "# TYPE a counter\n9a 1\n"},
		{"malformed TYPE line", "# TYPE a\n"},
		{"TYPE with extra tokens", "# TYPE a counter extra\n"},
		{"unbalanced braces", "# TYPE a counter\na{x=\"1\" 1\n"},
		{"sample missing value", "# TYPE a counter\na\n"},
		{"sample with extra fields", "# TYPE a counter\na 1 2 3\n"},
		{"undeclared histogram series", "# TYPE a counter\nb_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseExposition(strings.NewReader(tc.payload)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", tc.name, tc.payload)
		}
	}
}

// TestRing is the contract of the one overwrite-oldest ring behind the
// decision trace, the flight recorder's spans and the incident log.
func TestRing(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		batches   [][]int // each inner slice is one Append (len 1) or AppendBatch
		wantCap   int
		wantFirst uint64
		wantHeld  []int
	}{
		{name: "empty", capacity: 4, wantCap: 4},
		{name: "partial", capacity: 4, batches: [][]int{{0}, {1}, {2}},
			wantCap: 4, wantHeld: []int{0, 1, 2}},
		{name: "exactly full", capacity: 4, batches: [][]int{{0}, {1}, {2}, {3}},
			wantCap: 4, wantHeld: []int{0, 1, 2, 3}},
		{name: "wrap keeps newest", capacity: 4,
			batches: [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}},
			wantCap: 4, wantFirst: 6, wantHeld: []int{6, 7, 8, 9}},
		{name: "rounds up to a power of two", capacity: 5,
			batches: [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}},
			wantCap: 8, wantFirst: 1, wantHeld: []int{1, 2, 3, 4, 5, 6, 7, 8}},
		{name: "batch across the wrap point", capacity: 4,
			batches: [][]int{{0, 1, 2}, {3, 4, 5}, {}},
			wantCap: 4, wantFirst: 2, wantHeld: []int{2, 3, 4, 5}},
		{name: "batch longer than the ring", capacity: 2,
			batches: [][]int{{0}, {1, 2, 3, 4, 5}},
			wantCap: 2, wantFirst: 4, wantHeld: []int{4, 5}},
		{name: "non-positive capacity gets the default", capacity: 0,
			batches: [][]int{{0}}, wantCap: DefaultRingCapacity, wantHeld: []int{0}},
		{name: "negative capacity gets the default", capacity: -3,
			wantCap: DefaultRingCapacity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			total := 0
			for _, b := range tc.batches {
				if len(b) == 1 {
					r.Append(b[0])
				} else {
					r.AppendBatch(b)
				}
				total += len(b)
			}
			// Fill past capacity on a scratch ring to observe the rounded size.
			probe := NewRing[int](tc.capacity)
			probe.AppendBatch(make([]int, 3*tc.wantCap))
			if got := probe.Len(); got != tc.wantCap {
				t.Fatalf("capacity = %d, want %d", got, tc.wantCap)
			}
			if got := r.Total(); got != uint64(total) {
				t.Fatalf("Total = %d, want %d", got, total)
			}
			if got := r.Len(); got != len(tc.wantHeld) {
				t.Fatalf("Len = %d, want %d", got, len(tc.wantHeld))
			}
			first, held := r.SnapshotSeq()
			if first != tc.wantFirst {
				t.Fatalf("first sequence = %d, want %d", first, tc.wantFirst)
			}
			if !slices.Equal(held, tc.wantHeld) {
				t.Fatalf("SnapshotSeq = %v, want %v (oldest first)", held, tc.wantHeld)
			}
			// Records are appended in order, so record i is sequence first+i.
			for i, v := range held {
				if uint64(v) != first+uint64(i) {
					t.Fatalf("record %d = %d, want sequence %d", i, v, first+uint64(i))
				}
			}
			if snap := r.Snapshot(); !slices.Equal(snap, held) {
				t.Fatalf("Snapshot = %v, SnapshotSeq = %v", snap, held)
			}
		})
	}
}

func TestRingWrapAndSnapshot(t *testing.T) {
	r := NewRing[DecisionEvent](4)
	for i := 0; i < 10; i++ {
		r.Append(DecisionEvent{Segment: int32(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if want := int32(6 + i); ev.Segment != want {
			t.Errorf("snap[%d].Segment = %d, want %d (oldest first)", i, ev.Segment, want)
		}
	}
}

func TestRingJSONL(t *testing.T) {
	r := NewRing[DecisionEvent](8)
	for i := 0; i < 5; i++ {
		r.Append(DecisionEvent{Segment: int32(i), Rung: int16(i % 3), Buffer: units.Seconds(i)})
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot(), 3, nil); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var segs []int32
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line does not parse as DecisionEvent: %v", err)
		}
		segs = append(segs, ev.Segment)
	}
	if len(segs) != 3 || segs[0] != 2 || segs[2] != 4 {
		t.Fatalf("limited JSONL segments = %v, want [2 3 4]", segs)
	}
}

func TestRingJSONLSessionFilter(t *testing.T) {
	r := NewRing[DecisionEvent](16)
	for i := 0; i < 12; i++ {
		r.Append(DecisionEvent{Session: int32(i % 3), Segment: int32(i)})
	}
	session1 := Query{Session: 1}
	keep := func(ev *DecisionEvent) bool { return session1.Keeps(ev.Session) }
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot(), 0, keep); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var segs []int32
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line does not parse: %v", err)
		}
		if ev.Session != 1 {
			t.Fatalf("filtered output leaked session %d", ev.Session)
		}
		segs = append(segs, ev.Segment)
	}
	if len(segs) != 4 || segs[0] != 1 || segs[3] != 10 {
		t.Fatalf("session-1 segments = %v, want [1 4 7 10]", segs)
	}
	// The limit applies after the session filter: newest K of that session.
	buf.Reset()
	if err := WriteJSONL(&buf, r.Snapshot(), 2, keep); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("limit-after-filter produced %d lines, want 2", len(lines))
	}
	var first DecisionEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Segment != 7 {
		t.Fatalf("newest-2-of-session-1 starts at segment %d (err %v), want 7", first.Segment, err)
	}
}

// errAfterWriter fails every write after the first n bytes — the shape of a
// client hanging up mid-stream.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("client hung up")
	}
	w.written += len(p)
	return len(p), nil
}

func TestRingJSONLClientHangup(t *testing.T) {
	r := NewRing[DecisionEvent](8)
	for i := 0; i < 8; i++ {
		r.Append(DecisionEvent{Segment: int32(i)})
	}
	err := WriteJSONL(&errAfterWriter{n: 50}, r.Snapshot(), 0, nil)
	if err == nil {
		t.Fatal("WriteJSONL swallowed the write error")
	}
}

// TestRecorderMatchesDirect proves the SessionRecorder's batched flush path
// is observationally identical to calling Collector.RecordDecision directly.
func TestRecorderMatchesDirect(t *testing.T) {
	events := make([]DecisionEvent, 700) // crosses the flush threshold twice
	for i := range events {
		ev := DecisionEvent{
			Segment: int32(i), Rung: int16(i % 6), PrevRung: int16((i + 5) % 6),
			Buffer:     units.Seconds(math.Mod(float64(i)*0.37, 22)),
			Throughput: units.Mbps(3 + float64(i%9)),
			Bitrate:    units.Mbps(0.5 * float64(1+i%6)),
		}
		if i%7 == 0 {
			ev.Rung = -1
			ev.Bitrate = 0
			ev.WaitSeconds = 0.5
		}
		if i%16 == 0 {
			ev.Timed = true
			ev.SolveSeconds = units.Seconds(1e-6 * float64(1+i%40))
		}
		events[i] = ev
	}

	direct := NewCollector(nil, 2048)
	for _, ev := range events {
		direct.RecordDecision(ev)
	}
	direct.RecordSolverStats(SolverStats{Solves: 700, Nodes: 9000})
	direct.RecordSession(600, units.Seconds(2.5))

	batched := NewCollector(nil, 2048)
	rec := batched.StartSession(0)
	for _, ev := range events {
		rec.RecordDecision(&ev)
	}
	rec.Finish(SolverStats{Solves: 700, Nodes: 9000}, 600, units.Seconds(2.5))

	a, b := direct.Snapshot(), batched.Snapshot()
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for i := range a.Metrics {
		ma, mb := a.Metrics[i], b.Metrics[i]
		// Histogram sums accumulate in a different order on the batched path,
		// so compare them within float tolerance and everything else exactly.
		sa, sb := ma.Sum, mb.Sum
		ma.Sum, mb.Sum = 0, 0
		ja, _ := json.Marshal(ma)
		jb, _ := json.Marshal(mb)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("metric %s diverged:\ndirect:  %s\nbatched: %s", ma.Name, ja, jb)
		}
		if math.Abs(sa-sb) > 1e-9*math.Max(1, math.Abs(sa)) {
			t.Fatalf("metric %s sum diverged beyond float tolerance: %g vs %g", ma.Name, sa, sb)
		}
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("ring lengths differ: %d vs %d", len(a.Decisions), len(b.Decisions))
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("ring event %d differs: %+v vs %+v", i, a.Decisions[i], b.Decisions[i])
		}
	}
}

func TestNilCollectorAndRecorderAreSafe(t *testing.T) {
	var c *Collector
	c.RecordDecision(DecisionEvent{})
	c.RecordSolverStats(SolverStats{Solves: 1})
	c.RecordSession(10, units.Seconds(1))
	rec := c.StartSession(3)
	if rec != nil {
		t.Fatal("nil collector returned a non-nil recorder")
	}
	if rec.SampleLatency() {
		t.Fatal("nil recorder wants latency samples")
	}
	rec.RecordDecision(&DecisionEvent{})
	rec.Finish(SolverStats{}, 0, units.Seconds(0))
	if snap := c.Snapshot(); len(snap.Metrics) != 0 || len(snap.Decisions) != 0 {
		t.Fatal("nil collector snapshot not empty")
	}
}

// TestMetricNamesCarryUnitSuffix is the typed-wire-schemas check: every
// metric registered by the standard collector whose values originate from a
// units.* scalar must declare that unit and carry the matching name suffix.
// CheckName enforces the suffix at registration; this test pins the
// declarations themselves so a metric can't silently drop its unit.
func TestMetricNamesCarryUnitSuffix(t *testing.T) {
	c := NewCollector(nil, 16)
	wantUnits := map[string]Unit{
		// units.Seconds sources
		"soda_buffer_level_seconds":   USeconds,
		"soda_decide_latency_seconds": USeconds,
		"soda_rebuffer_seconds_total": USeconds,
		// units.Mbps sources
		"soda_decided_bitrate_mbps": UMbps,
	}
	seen := map[string]bool{}
	for _, snap := range c.Registry.Snapshot() {
		seen[snap.Name] = true
		if want, ok := wantUnits[snap.Name]; ok && Unit(snap.Unit) != want {
			t.Errorf("metric %s declares unit %q, want %q", snap.Name, snap.Unit, want)
		}
		if err := CheckName(snap.Name, snap.Kind == "counter", snap.Unit); err != nil {
			t.Errorf("registered metric violates the naming rule: %v", err)
		}
		// No unit-bearing token may hide in an undeclared metric's name.
		if snap.Unit == None {
			base := strings.TrimSuffix(snap.Name, "_total")
			for _, u := range []Unit{USeconds, UMinutes, UMbps, UMegabits} {
				if strings.HasSuffix(base, "_"+string(u)) {
					t.Errorf("metric %s ends in _%s but declares no unit", snap.Name, u)
				}
			}
		}
	}
	for name := range wantUnits {
		if !seen[name] {
			t.Errorf("expected collector metric %s not registered", name)
		}
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	c := NewCollector(nil, 16)
	c.RecordDecision(DecisionEvent{Segment: 1, Rung: 2, Buffer: units.Seconds(3), Bitrate: units.Mbps(4)})
	c.RecordSession(1, units.Seconds(0.5))
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := c.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot file does not parse: %v", err)
	}
	if len(snap.Decisions) != 1 || snap.Decisions[0].Segment != 1 {
		t.Fatalf("snapshot decisions = %+v, want the one recorded event", snap.Decisions)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("snapshot has no metrics")
	}
}

func TestMetricsAndDecisionsHandlers(t *testing.T) {
	c := NewCollector(nil, 16)
	c.RecordDecision(DecisionEvent{Segment: 0, Rung: 1, Buffer: units.Seconds(2), Bitrate: units.Mbps(1)})
	refreshed := false
	h := MetricsHandler(c.Registry, func() { refreshed = true })
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !refreshed {
		t.Fatal("onScrape hook did not run")
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := ParseExposition(rw.Body); err != nil {
		t.Fatalf("/metrics body does not parse: %v", err)
	}

	dh := DecisionsHandler(c.Ring)
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=1", nil))
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var ev DecisionEvent
	if err := json.Unmarshal(bytes.TrimSpace(rw.Body.Bytes()), &ev); err != nil {
		t.Fatalf("decision line does not parse: %v", err)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=-2", nil))
	if rw.Code != 400 {
		t.Fatalf("negative limit returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?limit=abc", nil))
	if rw.Code != 400 {
		t.Fatalf("non-numeric limit returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=-3", nil))
	if rw.Code != 400 {
		t.Fatalf("negative session returned %d, want 400", rw.Code)
	}
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("non-numeric session returned %d, want 400", rw.Code)
	}
	// The filter path: only the requested session's events come back.
	c.RecordDecision(DecisionEvent{Session: 7, Segment: 9})
	rw = httptest.NewRecorder()
	dh.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/decisions?session=7", nil))
	var filtered DecisionEvent
	if err := json.Unmarshal(bytes.TrimSpace(rw.Body.Bytes()), &filtered); err != nil {
		t.Fatalf("filtered decision line does not parse: %v", err)
	}
	if filtered.Session != 7 || filtered.Segment != 9 {
		t.Fatalf("?session=7 returned %+v", filtered)
	}
}
