// Package trace models network throughput traces: piecewise-constant
// bandwidth functions of time, exactly as consumed by the ABR simulator and
// the trace-shaped TCP prototype.
//
// The package supports the operations the paper's evaluation needs:
//
//   - integrating bandwidth over time to compute segment download times
//     (the simulator's core primitive),
//   - slicing long captures into fixed-length sessions (the paper splits its
//     datasets into consecutive 10-minute sessions, §6.1.1),
//   - computing per-session mean throughput and relative standard deviation
//     (used to bucket the Puffer dataset into variance quartiles, Fig. 10),
//   - reading and writing a simple CSV interchange format.
//
// Traces wrap around: a download that runs past the end of the trace continues
// from the beginning, mirroring the behaviour of the Sabre simulator the
// paper's evaluation is built on.
//
//soda:wire-boundary
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/units"
)

// Sample is one piecewise-constant span of a trace: the link sustains Mbps
// for Duration seconds.
type Sample struct {
	Duration units.Seconds // > 0
	Mbps     units.Mbps    // >= 0
}

// Trace is a piecewise-constant bandwidth function of time.
// The zero value is an empty trace; use New or Append to build one.
type Trace struct {
	samples []Sample
	total   units.Seconds // cached total duration
}

// New builds a trace from samples. It panics if any sample is invalid;
// use Validate for error-returning checks on untrusted input.
func New(samples []Sample) *Trace {
	t := &Trace{}
	t.Grow(len(samples))
	for _, s := range samples {
		t.Append(s)
	}
	return t
}

// Constant returns a trace holding mbps for the given duration.
func Constant(mbps units.Mbps, duration units.Seconds) *Trace {
	return New([]Sample{{Duration: duration, Mbps: mbps}})
}

// Grow makes room for n more samples.
func (t *Trace) Grow(n int) { t.samples = slices.Grow(t.samples, n) }

// Append adds one sample to the end of the trace.
// It panics on non-positive duration or negative bandwidth.
func (t *Trace) Append(s Sample) {
	if s.Duration <= 0 {
		panic(fmt.Sprintf("trace: non-positive sample duration %v", s.Duration))
	}
	if s.Mbps < 0 || math.IsNaN(float64(s.Mbps)) || math.IsInf(float64(s.Mbps), 0) {
		panic(fmt.Sprintf("trace: invalid bandwidth %v", s.Mbps))
	}
	t.samples = append(t.samples, s)
	t.total += s.Duration
}

// Samples returns the underlying samples. The slice must not be modified.
func (t *Trace) Samples() []Sample { return t.samples }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Duration returns the total duration of the trace.
func (t *Trace) Duration() units.Seconds { return t.total }

// BandwidthAt returns the bandwidth at time tsec. The trace wraps:
// times beyond Duration() map back into the trace, and negative times map
// from the end. An empty trace reports 0.
func (t *Trace) BandwidthAt(tsec units.Seconds) units.Mbps {
	if len(t.samples) == 0 || t.total == 0 {
		return 0
	}
	idx, _ := t.locate(tsec)
	return t.samples[idx].Mbps
}

// locate maps stream time at into the non-empty trace, with wrap-around, by
// math.Mod and a walk from sample 0: the sample holding it and the offset.
func (t *Trace) locate(at units.Seconds) (int, units.Seconds) {
	off := units.Seconds(math.Mod(float64(at), float64(t.total)))
	if off < 0 {
		off += t.total
	}
	idx := 0
	for idx < len(t.samples)-1 && off >= t.samples[idx].Duration {
		off -= t.samples[idx].Duration
		idx++
	}
	return idx, off
}

// MeanOver returns the average bandwidth over [start, start+length), with
// wrap-around. It returns 0 for an empty trace or non-positive length.
func (t *Trace) MeanOver(start, length units.Seconds) units.Mbps {
	if len(t.samples) == 0 || length <= 0 {
		return 0
	}
	return t.TransferableMegabits(start, length).Over(length)
}

// TransferableMegabits integrates bandwidth over [start, start+length),
// returning the number of megabits the link can carry in that window.
func (t *Trace) TransferableMegabits(start, length units.Seconds) units.Megabits {
	if len(t.samples) == 0 || length <= 0 || t.total == 0 {
		return 0
	}
	idx, off := t.locate(start)
	remaining := length
	megabits := units.Megabits(0)
	for remaining > 0 {
		s := t.samples[idx]
		span := s.Duration - off
		if span > remaining {
			span = remaining
		}
		megabits += s.Mbps.MegabitsIn(span)
		remaining -= span
		off = 0
		idx++
		if idx == len(t.samples) {
			idx = 0
		}
	}
	return megabits
}

// ErrStalled is returned by DownloadTime when the link carries no data for an
// entire wrap of the trace (all-zero bandwidth), so the transfer can never
// complete.
var ErrStalled = errors.New("trace: zero-bandwidth trace cannot complete transfer")

// DownloadTime returns the number of seconds needed to transfer megabits of
// data starting at time start, integrating the piecewise-constant bandwidth
// with wrap-around.
func (t *Trace) DownloadTime(start units.Seconds, megabits units.Megabits) (units.Seconds, error) {
	if megabits <= 0 {
		return 0, nil
	}
	if len(t.samples) == 0 || t.total == 0 {
		return 0, ErrStalled
	}
	idx, off := t.locate(start)
	return t.TransferTime(idx, off, megabits)
}

// Seek moves a forward-moving position to the sample holding stream time at,
// which must not precede start. A position is a sample index and the stream
// time its sample began, the running sum of the durations passed, wraps
// included; at − start is the offset into the sample. On whole-second
// samples every step is exact, so the offset has the bits locate's has and
// TransferTime from it returns what DownloadTime(at, …) returns.
//
//soda:noalloc
func (t *Trace) Seek(idx int, start, at units.Seconds) (int, units.Seconds) {
	for len(t.samples) > 0 && at-start >= t.samples[idx].Duration {
		start += t.samples[idx].Duration
		if idx++; idx == len(t.samples) {
			idx = 0
		}
	}
	return idx, start
}

// TransferTime returns the seconds needed to transfer megabits from off
// seconds into sample idx: the integration DownloadTime runs once it has
// located its start.
//
//soda:noalloc
func (t *Trace) TransferTime(idx int, off units.Seconds, megabits units.Megabits) (units.Seconds, error) {
	if megabits <= 0 {
		return 0, nil
	}
	if len(t.samples) == 0 || t.total == 0 {
		return 0, ErrStalled
	}
	elapsed := units.Seconds(0)
	remaining := megabits
	zeroRun := units.Seconds(0) // consecutive time of zero bandwidth observed
	for {
		s := t.samples[idx]
		span := s.Duration - off
		if s.Mbps > 0 {
			zeroRun = 0
			capacity := s.Mbps.MegabitsIn(span)
			if capacity >= remaining {
				return elapsed + remaining.AtRate(s.Mbps), nil
			}
			remaining -= capacity
		} else {
			zeroRun += span
			if zeroRun >= t.total {
				return 0, ErrStalled
			}
		}
		elapsed += span
		off = 0
		idx++
		if idx == len(t.samples) {
			idx = 0
		}
	}
}

// Slice returns a copy of the trace covering [start, start+length), with
// wrap-around. The result has its own sample storage.
func (t *Trace) Slice(start, length units.Seconds) *Trace {
	out := &Trace{}
	if len(t.samples) == 0 || length <= 0 {
		return out
	}
	idx, off := t.locate(start)
	remaining := length
	for remaining > 1e-12 {
		s := t.samples[idx]
		span := s.Duration - off
		if span > remaining {
			span = remaining
		}
		out.Append(Sample{Duration: span, Mbps: s.Mbps})
		remaining -= span
		off = 0
		idx++
		if idx == len(t.samples) {
			idx = 0
		}
	}
	return out
}

// SplitSessions cuts the trace into consecutive sessions of sessionSeconds
// each, discarding any final partial session, mirroring the paper's dataset
// preparation (§6.1.1: sessions shorter than the window are filtered out and
// long captures are divided into consecutive fixed-length sessions).
func (t *Trace) SplitSessions(session units.Seconds) []*Trace {
	if session <= 0 || t.total < session {
		return nil
	}
	n := int(t.total / session)
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.Slice(units.Seconds(i)*session, session))
	}
	return out
}

// Scale returns a copy of the trace with all bandwidths multiplied by f.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{}
	for _, s := range t.samples {
		out.Append(Sample{Duration: s.Duration, Mbps: s.Mbps * units.Mbps(f)})
	}
	return out
}

// MeanMbps returns the duration-weighted mean bandwidth of the whole trace.
func (t *Trace) MeanMbps() units.Mbps {
	if t.total == 0 {
		return 0
	}
	sum := units.Megabits(0)
	for _, s := range t.samples {
		sum += s.Mbps.MegabitsIn(s.Duration)
	}
	return sum.Over(t.total)
}

// RSD returns the duration-weighted relative standard deviation of bandwidth:
// the volatility measure the paper uses to split the Puffer dataset into
// quartiles (Fig. 10) and to characterize datasets (Fig. 9).
func (t *Trace) RSD() float64 {
	m := t.MeanMbps()
	if m == 0 || t.total == 0 {
		return 0
	}
	ss := 0.0
	for _, s := range t.samples {
		d := float64(s.Mbps - m)
		ss += d * d * float64(s.Duration)
	}
	return math.Sqrt(ss/float64(t.total)) / float64(m)
}

// Validate checks the trace invariants (positive durations, finite
// non-negative bandwidths, cached total consistent with the samples).
func (t *Trace) Validate() error {
	sum := units.Seconds(0)
	for i, s := range t.samples {
		if s.Duration <= 0 {
			return fmt.Errorf("trace: sample %d has non-positive duration %v", i, s.Duration)
		}
		if s.Mbps < 0 || math.IsNaN(float64(s.Mbps)) || math.IsInf(float64(s.Mbps), 0) {
			return fmt.Errorf("trace: sample %d has invalid bandwidth %v", i, s.Mbps)
		}
		sum += s.Duration
	}
	if math.Abs(float64(sum-t.total)) > 1e-6 {
		return fmt.Errorf("trace: cached duration %v != sum %v", t.total, sum)
	}
	return nil
}

// WriteCSV writes the trace as "duration_s,mbps" lines with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "duration_s,mbps"); err != nil {
		return err
	}
	for _, s := range t.samples {
		if _, err := fmt.Fprintf(bw, "%g,%g\n", float64(s.Duration), float64(s.Mbps)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace from the format written by WriteCSV. A header line
// is optional. Blank lines and lines starting with '#' are ignored.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "duration") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %d", lineNo, len(parts))
		}
		dur, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad duration: %w", lineNo, err)
		}
		mbps, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad bandwidth: %w", lineNo, err)
		}
		if dur <= 0 || mbps < 0 {
			return nil, fmt.Errorf("trace: line %d: invalid sample (%g s, %g Mbps)", lineNo, dur, mbps)
		}
		t.Append(Sample{Duration: units.Seconds(dur), Mbps: units.Mbps(mbps)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Bandwidths returns the per-sample bandwidth values (unweighted), useful for
// histograms and summary statistics over uniformly sampled traces.
func (t *Trace) Bandwidths() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = float64(s.Mbps)
	}
	return out
}

// Summary returns descriptive statistics of the per-sample bandwidths.
func (t *Trace) Summary() stats.Summary { return stats.Summarize(t.Bandwidths()) }
