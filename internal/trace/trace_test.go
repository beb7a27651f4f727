package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func figure4Trace() *Trace {
	// The throughput function of the paper's Figure 4:
	// 4 Mb/s for 1 s, 1 Mb/s for 1 s, then 2 Mb/s for 2 s.
	return New([]Sample{{units.Seconds(1), units.Mbps(4)}, {units.Seconds(1), units.Mbps(1)}, {units.Seconds(2), units.Mbps(2)}})
}

func TestFigure4TimeBasedThroughput(t *testing.T) {
	tr := figure4Trace()
	// Time-based formulation with Δt = 1 s: ω1=4, ω2=1, ω3=ω4=2.
	want := []float64{4, 1, 2, 2}
	for i, w := range want {
		got := tr.MeanOver(units.Seconds(i), units.Seconds(1))
		if math.Abs(float64(got)-w) > 1e-12 {
			t.Errorf("ω_%d = %v, want %v", i+1, got, w)
		}
	}
}

func TestFigure4SegmentBasedBias(t *testing.T) {
	tr := figure4Trace()
	// Segment-based accounting from §3.1: with L = 1 s, r1 = 2 Mb/s the first
	// segment (2 Mb) downloads in 0.5 s at 4 Mb/s, so ω1 = 4 Mb/s; with
	// r2 = 2.5 Mb/s the second segment (2.5 Mb) takes 1 s (0.5 s at 4 Mb/s
	// gives 2 Mb, then 0.5 s at 1 Mb/s gives 0.5 Mb), so ω2 = 2.5 Mb/s.
	dt1, err := tr.DownloadTime(units.Seconds(0), units.Megabits(2.0))
	if err != nil || math.Abs(float64(dt1)-0.5) > 1e-12 {
		t.Fatalf("segment 1 download time = %v, %v; want 0.5", dt1, err)
	}
	dt2, err := tr.DownloadTime(units.Seconds(0.5), units.Megabits(2.5))
	if err != nil || math.Abs(float64(dt2)-1.0) > 1e-12 {
		t.Fatalf("segment 2 download time = %v, %v; want 1.0", dt2, err)
	}
	if w1 := 2.0 / float64(dt1); math.Abs(w1-4) > 1e-12 {
		t.Errorf("segment-based ω1 = %v, want 4", w1)
	}
	if w2 := 2.5 / float64(dt2); math.Abs(w2-2.5) > 1e-12 {
		t.Errorf("segment-based ω2 = %v, want 2.5", w2)
	}
}

func TestBandwidthAt(t *testing.T) {
	tr := figure4Trace()
	// {4, 4} exercises wrap-around; {-0.5, 2} wraps negatively from the end.
	for _, c := range []struct{ at, want float64 }{
		{0, 4}, {0.99, 4}, {1, 1}, {1.5, 1}, {2, 2}, {3.9, 2}, {4, 4}, {-0.5, 2},
	} {
		if got := tr.BandwidthAt(units.Seconds(c.at)); float64(got) != c.want {
			t.Errorf("BandwidthAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	var empty Trace
	if empty.BandwidthAt(units.Seconds(1)) != 0 {
		t.Error("empty trace should report 0 bandwidth")
	}
}

func TestDownloadTimeWrap(t *testing.T) {
	tr := New([]Sample{{units.Seconds(1), units.Mbps(8)}}) // 8 Mb/s forever
	dt, err := tr.DownloadTime(units.Seconds(0.9), units.Megabits(16))
	if err != nil || math.Abs(float64(dt)-2.0) > 1e-9 {
		t.Errorf("DownloadTime = %v, %v; want 2", dt, err)
	}
	if dt, err := tr.DownloadTime(units.Seconds(5), units.Megabits(0)); err != nil || dt != 0 {
		t.Errorf("zero-size transfer = %v, %v", dt, err)
	}
}

func TestDownloadTimeStalled(t *testing.T) {
	tr := New([]Sample{{units.Seconds(5), units.Mbps(0)}})
	if _, err := tr.DownloadTime(units.Seconds(0), units.Megabits(1)); err != ErrStalled {
		t.Errorf("want ErrStalled, got %v", err)
	}
	var empty Trace
	if _, err := empty.DownloadTime(units.Seconds(0), units.Megabits(1)); err != ErrStalled {
		t.Errorf("empty trace: want ErrStalled, got %v", err)
	}
	// Zero spans followed by capacity must still complete.
	mix := New([]Sample{{units.Seconds(2), units.Mbps(0)}, {units.Seconds(1), units.Mbps(10)}})
	dt, err := mix.DownloadTime(units.Seconds(0), units.Megabits(5))
	if err != nil || math.Abs(float64(dt)-2.5) > 1e-9 {
		t.Errorf("mixed trace DownloadTime = %v, %v; want 2.5", dt, err)
	}
}

func TestTransferableMegabits(t *testing.T) {
	tr := figure4Trace()
	if got := tr.TransferableMegabits(units.Seconds(0), units.Seconds(4)); math.Abs(float64(got)-9) > 1e-12 {
		t.Errorf("full trace capacity = %v, want 9", got)
	}
	if got := tr.TransferableMegabits(units.Seconds(0.5), units.Seconds(1)); math.Abs(float64(got)-2.5) > 1e-12 {
		t.Errorf("capacity over [0.5,1.5) = %v, want 2.5", got)
	}
	// Wrap-around window.
	if got := tr.TransferableMegabits(units.Seconds(3.5), units.Seconds(1)); math.Abs(float64(got)-(1+2)) > 1e-12 {
		t.Errorf("wrapping capacity = %v, want 3", got)
	}
}

func TestMeanAndRSD(t *testing.T) {
	tr := figure4Trace()
	wantMean := 9.0 / 4.0
	if got := tr.MeanMbps(); math.Abs(float64(got)-wantMean) > 1e-12 {
		t.Errorf("MeanMbps = %v, want %v", got, wantMean)
	}
	if c := Constant(units.Mbps(5), units.Seconds(10)); c.RSD() != 0 {
		t.Errorf("constant trace RSD = %v", c.RSD())
	}
	if tr.RSD() <= 0 {
		t.Errorf("varying trace RSD = %v", tr.RSD())
	}
	var empty Trace
	if got := empty.MeanMbps(); got != 0 {
		t.Errorf("empty trace MeanMbps = %v, want 0", got)
	}
	if got := empty.RSD(); got != 0 {
		t.Errorf("empty trace RSD = %v, want 0", got)
	}
	if got := empty.MeanOver(units.Seconds(0), units.Seconds(1)); got != 0 {
		t.Errorf("empty trace MeanOver = %v, want 0", got)
	}
	if got := tr.MeanOver(units.Seconds(1), units.Seconds(0)); got != 0 {
		t.Errorf("zero-length MeanOver = %v, want 0", got)
	}
}

func TestSliceAndSplit(t *testing.T) {
	tr := figure4Trace()
	s := tr.Slice(units.Seconds(0.5), units.Seconds(2))
	if math.Abs(float64(s.Duration())-2) > 1e-9 {
		t.Fatalf("slice duration = %v", s.Duration())
	}
	if got := s.MeanOver(units.Seconds(0), units.Seconds(2)); math.Abs(float64(got-tr.MeanOver(units.Seconds(0.5), units.Seconds(2)))) > 1e-9 {
		t.Errorf("slice mean = %v, want %v", got, tr.MeanOver(units.Seconds(0.5), units.Seconds(2)))
	}
	if err := s.Validate(); err != nil {
		t.Errorf("slice invalid: %v", err)
	}
	sessions := tr.SplitSessions(units.Seconds(2))
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	for i, ss := range sessions {
		if math.Abs(float64(ss.Duration())-2) > 1e-9 {
			t.Errorf("session %d duration = %v", i, ss.Duration())
		}
		if err := ss.Validate(); err != nil {
			t.Errorf("session %d invalid: %v", i, err)
		}
	}
	if got := tr.SplitSessions(units.Seconds(10)); got != nil {
		t.Errorf("oversized split should be nil, got %d sessions", len(got))
	}
}

func TestScale(t *testing.T) {
	tr := figure4Trace().Scale(2)
	if got := tr.MeanMbps(); math.Abs(float64(got)-4.5) > 1e-12 {
		t.Errorf("scaled mean = %v", got)
	}
	if tr.Len() != 3 {
		t.Errorf("scaled length = %d", tr.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := figure4Trace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || math.Abs(float64(back.Duration()-tr.Duration())) > 1e-9 {
		t.Fatalf("round trip mismatch: %d samples, %v s", back.Len(), back.Duration())
	}
	for i, s := range back.Samples() {
		if s != tr.Samples()[i] {
			t.Errorf("sample %d = %+v, want %+v", i, s, tr.Samples()[i])
		}
	}
}

// failingWriter rejects every write.
type failingWriter struct{}

var errWrite = errors.New("write failed")

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestWriteCSVError fails the writer both when the final flush reaches it
// and when a sample overflows the write buffer mid-trace.
func TestWriteCSVError(t *testing.T) {
	for _, copies := range []int{1, 2000} {
		if err := figure4Trace().Repeat(copies).WriteCSV(failingWriter{}); !errors.Is(err, errWrite) {
			t.Errorf("%d copies: WriteCSV to a failing writer = %v, want %v", copies, err, errWrite)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,2,3\n",
		"abc,2\n",
		"1,abc\n",
		"-1,2\n",
		"1,-2\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", c)
		}
	}
	// Header, comments and blank lines are fine.
	tr, err := ReadCSV(strings.NewReader("duration_s,mbps\n# comment\n\n1,5\n"))
	if err != nil || tr.Len() != 1 {
		t.Errorf("lenient parse failed: %v, %d", err, tr.Len())
	}
}

func TestValidate(t *testing.T) {
	tr := figure4Trace()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := &Trace{samples: []Sample{{Duration: units.Seconds(1), Mbps: units.Mbps(2)}}, total: units.Seconds(99)}
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent total not caught")
	}
	bad2 := &Trace{samples: []Sample{{Duration: units.Seconds(-1), Mbps: units.Mbps(2)}}, total: units.Seconds(-1)}
	if err := bad2.Validate(); err == nil {
		t.Error("negative duration not caught")
	}
}

func TestAppendPanics(t *testing.T) {
	for _, s := range []Sample{{units.Seconds(0), units.Mbps(1)}, {units.Seconds(-1), units.Mbps(1)}, {units.Seconds(1), units.Mbps(-1)}, {units.Seconds(1), units.Mbps(math.NaN())}, {units.Seconds(1), units.Mbps(math.Inf(1))}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%+v) should panic", s)
				}
			}()
			var tr Trace
			tr.Append(s)
		}()
	}
}

// Property: download time is consistent with TransferableMegabits — the
// megabits transferable in the computed time equal the requested size.
func TestDownloadTimeConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		tr := &Trace{}
		n := 1 + rng.IntN(20)
		for i := 0; i < n; i++ {
			tr.Append(Sample{
				Duration: units.Seconds(0.1 + rng.Float64()*3),
				Mbps:     units.Mbps(0.5 + rng.Float64()*50),
			})
		}
		start := units.Seconds(rng.Float64() * 100)
		size := units.Megabits(0.1 + rng.Float64()*200)
		dt, err := tr.DownloadTime(start, size)
		if err != nil {
			return false
		}
		got := tr.TransferableMegabits(start, dt)
		return math.Abs(float64(got-size)) < 1e-6*math.Max(1, float64(size))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MeanOver of a full wrap equals MeanMbps.
func TestMeanOverFullWrap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 123))
		tr := &Trace{}
		n := 1 + rng.IntN(10)
		for i := 0; i < n; i++ {
			tr.Append(Sample{Duration: units.Seconds(0.2 + rng.Float64()), Mbps: units.Mbps(rng.Float64() * 20)})
		}
		start := units.Seconds(rng.Float64() * 7)
		return math.Abs(float64(tr.MeanOver(start, tr.Duration())-tr.MeanMbps())) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthsAndSummary(t *testing.T) {
	tr := figure4Trace()
	bw := tr.Bandwidths()
	if len(bw) != 3 || bw[0] != 4 || bw[1] != 1 || bw[2] != 2 {
		t.Errorf("Bandwidths = %v", bw)
	}
	if s := tr.Summary(); s.N != 3 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
}

// TestSeekMatchesDownloadTime pins the position rule on an integer-second
// trace: walking a forward position through nondecreasing stream times, over
// several wraps, TransferTime from the position equals DownloadTime from the
// stream time bit for bit.
func TestSeekMatchesDownloadTime(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	tr := &Trace{}
	for i := 0; i < 40; i++ {
		tr.Append(Sample{Duration: units.Seconds(1 + rng.IntN(3)), Mbps: units.Mbps(rng.Float64() * 9)})
	}
	idx, start := 0, units.Seconds(0)
	for at := units.Seconds(0); at < 5*tr.Duration(); at += units.Seconds(rng.Float64() * 2.5) {
		idx, start = tr.Seek(idx, start, at)
		if off := at - start; off < 0 || off >= tr.Samples()[idx].Duration {
			t.Fatalf("at %v s: offset %v s outside sample %d", at, off, idx)
		}
		mb := units.Megabits(rng.Float64() * 20)
		got, err := tr.TransferTime(idx, at-start, mb)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tr.DownloadTime(at, mb)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("at %v s: TransferTime %v s, DownloadTime %v s", at, got, want)
		}
	}
	if start < 4*tr.Duration() {
		t.Fatalf("position start %v s: the walk did not wrap the %v s trace", start, tr.Duration())
	}
	if got, err := tr.TransferTime(3, units.Seconds(0), units.Megabits(0)); got != 0 || err != nil {
		t.Fatalf("empty transfer = %v, %v; want 0, nil", got, err)
	}
	if _, err := (&Trace{}).TransferTime(0, units.Seconds(0), units.Megabits(1)); err != ErrStalled {
		t.Fatalf("transfer over an empty trace: %v, want ErrStalled", err)
	}
	if idx, start := (&Trace{}).Seek(0, units.Seconds(0), units.Seconds(5)); idx != 0 || start != 0 {
		t.Fatalf("seek on an empty trace moved to %d at %v s", idx, start)
	}
}
