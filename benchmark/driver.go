package main

import (
	"math/rand/v2"
	"time"
)

// target is what the load driver exercises: prepare builds request i (not
// timed — an open-loop client has its next request ready before it is due),
// issue makes the one timed call and reports whether it was served, finish
// consumes the response (not timed).
type target interface {
	prepare(i int)
	issue() bool
	finish(i int)
}

// spinWindow is how early the open-loop pacer stops sleeping and starts
// spinning on the clock: Go timers oversleep by up to about a millisecond,
// which at tens of thousands of requests per second would be booked as
// generator lateness.
const spinWindow = 2 * time.Millisecond

// loopStats is one driven phase. Every per-request series is preallocated
// and holds exact nanosecond samples; an open loop fills them, a closed loop
// fills windowNS instead.
type loopStats struct {
	// service is the time from the call into the target to its return.
	service []int64
	// lag is how late each call started against its scheduled arrival;
	// sched is scheduled arrival to return, the queue-inclusive latency.
	// With one driver goroutine and a target that never queues
	// (DecideService sheds instead), any queueing is the generator's own,
	// which is why it is reported apart from service time.
	lag, sched []int64
	failed     int
	// windowNS is a closed loop's wall time per served request in each of
	// its consecutive windows.
	windowNS []float64
	// achievedPct is the achieved request rate as a share of the offered
	// one: the schedule's span over the span actually taken.
	achievedPct float64
}

// arrivals returns n Poisson arrival offsets (ns from phase start) at the
// given mean rate, drawn from seed.
func arrivals(n int, rate float64, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0a11))
	due := make([]int64, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() * 1e9 / rate
		due[i] = int64(t)
	}
	return due
}

// openLoop issues n requests from the calling goroutine at Poisson arrivals
// of the given rate. It sleeps only while more than spinWindow early and
// spins the rest of the wait.
func openLoop(t target, n int, rate float64, seed uint64) loopStats {
	due := arrivals(n, rate, seed)
	s := loopStats{service: make([]int64, n), lag: make([]int64, n), sched: make([]int64, n)}
	epoch := time.Now()
	var end int64
	for i := 0; i < n; i++ {
		t.prepare(i)
		now := int64(time.Since(epoch))
		for now < due[i] {
			if early := time.Duration(due[i] - now); early > spinWindow {
				time.Sleep(early - spinWindow)
			}
			now = int64(time.Since(epoch))
		}
		ok := t.issue()
		end = int64(time.Since(epoch))
		s.service[i] = end - now
		s.lag[i] = now - due[i]
		s.sched[i] = end - due[i]
		if !ok {
			s.failed++
		}
		t.finish(i)
	}
	if n > 0 && end > 0 {
		s.achievedPct = 100 * float64(due[n-1]) / float64(end)
	}
	return s
}

// closedWindow is how many requests a closed loop times as one window: under
// a millisecond of calls, short enough that many windows fall between the
// host's interruptions.
const closedWindow = 256

// closedLoop issues n requests back to back, timing each consecutive window
// of up to window requests as a whole; the per-request clock reads of the
// open loop would perturb a throughput measurement of microsecond calls.
func closedLoop(t target, n, window int) loopStats {
	window = max(1, window)
	s := loopStats{windowNS: make([]float64, 0, (n+window-1)/window)}
	for from := 0; from < n; from += window {
		to, failed := min(from+window, n), s.failed
		t0 := time.Now()
		for i := from; i < to; i++ {
			t.prepare(i)
			if !t.issue() {
				s.failed++
			}
			t.finish(i)
		}
		s.windowNS = append(s.windowNS, float64(time.Since(t0).Nanoseconds())/float64(max(1, to-from-(s.failed-failed))))
	}
	return s
}

// quietRate is a closed loop's served requests per second over its quietest
// windows.
func (s loopStats) quietRate() float64 { return 1e9 / mean(quietWindows(s.windowNS, 1)) }
