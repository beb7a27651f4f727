// Package netem shapes real network connections to replay bandwidth traces —
// the substitute for the Chrome DevTools WebSocket throttling the paper's
// prototype evaluation used to replay its network datasets (§6.2).
//
// A Shaper meters bytes against the integral of a trace's bandwidth over
// wall-clock time (a token bucket whose refill rate follows the trace), and
// a shaped net.Conn applies the shaper to every write. Because shaping
// happens on the sender, the receiver experiences genuine TCP dynamics —
// bursty arrivals, slow ramp-up after idle — rather than idealized fluid
// delivery, which is exactly the stressor the prototype evaluation adds over
// the numerical simulations.
//
// Shapers support time compression (TimeScale): with TimeScale = s the trace
// plays back s× faster at s× the bandwidth, so a 10-minute session completes
// in 10/s minutes while every controller decision sees identical dynamics in
// stream time. The prototype harness uses this to keep the Figure 12
// experiment wall-clock friendly.
package netem

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// Shaper meters bytes against a bandwidth trace. It is a token bucket whose
// refill rate follows the trace and whose burst size is bounded: capacity
// that goes unused while the link is idle is NOT banked beyond
// BurstSeconds' worth of the current rate, exactly like a policer on a real
// bottleneck. (Without the bound, a player idling at its buffer cap would
// accumulate unlimited credit and each subsequent download would start with
// an unrealistic instantaneous burst.)
type Shaper struct {
	tr        *trace.Trace
	timeScale float64 // dimensionless wall-clock compression factor
	chunk     int
	burst     units.Seconds

	mu       sync.Mutex
	start    time.Time
	consumed units.Megabits // capacity already granted
	started  bool
}

// NewShaper builds a shaper replaying the trace. timeScale >= 1 compresses
// wall-clock time (see the package comment). Writes are paced in 16 KiB
// chunks.
func NewShaper(tr *trace.Trace, timeScale float64) (*Shaper, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("netem: empty trace")
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Shaper{tr: tr, timeScale: timeScale, chunk: 16 * 1024, burst: units.Seconds(0.3)}, nil
}

// Start pins the shaper's time origin. The first Wait starts the clock
// implicitly when Start was not called.
func (s *Shaper) Start(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.start = now
		s.started = true
	}
}

// StreamTime converts a wall-clock instant into stream (trace) time.
func (s *Shaper) StreamTime(now time.Time) units.Seconds {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0
	}
	return units.Seconds(now.Sub(s.start).Seconds() * s.timeScale)
}

// Wait blocks until n bytes may be sent, according to the trace. It returns
// the wall-clock time waited.
func (s *Shaper) Wait(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	now := time.Now()
	s.Start(now)

	megabits := units.Bits(8 * n).Megabits()
	s.mu.Lock()
	// Enforce the burst bound: forfeit credit accumulated while idle beyond
	// burst (stream time) of capacity.
	streamNow := units.Seconds(now.Sub(s.start).Seconds() * s.timeScale)
	accrued := s.tr.TransferableMegabits(units.Seconds(0), streamNow)
	if bank := s.tr.BandwidthAt(streamNow).MegabitsIn(s.burst); s.consumed < accrued-bank {
		s.consumed = accrued - bank
	}
	target := s.consumed + megabits
	s.consumed = target
	start := s.start
	s.mu.Unlock()

	// Find the stream time at which the trace has carried `target` megabits,
	// then sleep until the corresponding wall-clock instant.
	streamSec := s.timeUntilTransferred(target)
	due := start.Add(time.Duration(float64(streamSec) / s.timeScale * float64(time.Second)))
	wait := time.Until(due)
	if wait > 0 {
		time.Sleep(wait)
		return wait
	}
	return 0
}

// timeUntilTransferred returns the stream time needed for the trace to carry
// the given megabits from stream time zero.
func (s *Shaper) timeUntilTransferred(megabits units.Megabits) units.Seconds {
	dt, err := s.tr.DownloadTime(units.Seconds(0), megabits)
	if err != nil {
		// All-zero trace: report an arbitrarily distant time.
		return 1e12
	}
	return dt
}

// Conn wraps a net.Conn, pacing writes through the shaper.
type Conn struct {
	net.Conn
	shaper *Shaper
}

// NewConn returns c with writes paced by the shaper.
func NewConn(c net.Conn, s *Shaper) *Conn { return &Conn{Conn: c, shaper: s} }

// Write implements net.Conn, sending in paced chunks.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := c.shaper.chunk
		if n > len(p) {
			n = len(p)
		}
		c.shaper.Wait(n)
		w, err := c.Conn.Write(p[:n])
		total += w
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// Listener wraps a net.Listener so every accepted connection is shaped by a
// fresh shaper built from the factory (one independent trace replay per
// connection).
type Listener struct {
	net.Listener
	factory func() (*Shaper, error)
}

// NewListener builds a shaping listener. factory is invoked per connection.
func NewListener(l net.Listener, factory func() (*Shaper, error)) *Listener {
	return &Listener{Listener: l, factory: factory}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	s, err := l.factory()
	if err != nil {
		_ = c.Close() // best effort; the factory error is the one to report
		return nil, err
	}
	return NewConn(c, s), nil
}
