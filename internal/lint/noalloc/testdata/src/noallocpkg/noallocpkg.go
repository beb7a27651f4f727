// Package noallocpkg exercises the noalloc analyzer: true positives carry
// want comments, everything else is the false-positive-avoidance corpus.
package noallocpkg

import "sync"

// Sum is allocation-free: nothing here can escape.
//
//soda:noalloc
func Sum(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

// Grow returns a fresh slice: the make escapes.
//
//soda:noalloc
func Grow(n int) []int {
	return make([]int, n) // want `heap allocation in //soda:noalloc function Grow: make\(\[\]int, n\) escapes to heap`
}

// Escape leaks a local's address, so the local moves to the heap.
//
//soda:noalloc
func Escape() *int {
	x := 42 // want `heap allocation in //soda:noalloc function Escape: moved to heap: x`
	return &x
}

// Closure builds an escaping func value.
//
//soda:noalloc
func Closure(n int) func() int {
	return func() int { return n } // want `heap allocation in //soda:noalloc function Closure: func literal escapes to heap`
}

// Scratch allocates a buffer the compiler keeps on the stack: the -m output
// says "does not escape", which is not a finding.
//
//soda:noalloc
func Scratch(xs []int) int {
	buf := make([]int, 8)
	for i, v := range xs {
		buf[i&7] += v
	}
	return buf[0]
}

// Fill mutates a caller-owned slice in place: allocation-free.
//
//soda:noalloc
func Fill(dst []int, v int) []int {
	for i := range dst {
		dst[i] = v
	}
	return dst
}

// Untagged allocates freely; without the directive there is nothing to
// check.
func Untagged(n int) []int {
	return make([]int, n)
}

// Counter carries the method-shaped cases.
type Counter struct{ n int }

// Inc is allocation-free.
//
//soda:noalloc
func (c *Counter) Inc() { c.n++ }

// Box converts to an interface, which heap-allocates the boxed value.
//
//soda:noalloc
func (c *Counter) Box() any {
	return c.n // want `heap allocation in //soda:noalloc function \(Counter\)\.Box: c\.n escapes to heap`
}

//soda:noalloc // want `//soda:noalloc must be the doc comment of a function declaration`
type Misplaced struct{ n int }

// Ring is the generic overwrite-oldest ring in the telemetry shape. The
// compiler escape-analyses a generic function only through its
// instantiations, so the package instantiates it once (spanRing below), as
// the real telemetry package does with its decision events.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	mask uint64
	next uint64
}

// span is a pointer-free record, the shape of the flight recorder's spans.
type span struct {
	start, dur int64
	session    int32
	ok         bool
}

// spanRing instantiates Ring; untagged, so its allocations are fine.
func spanRing(n int) *Ring[span] {
	return &Ring[span]{buf: make([]span, n), mask: uint64(n - 1)}
}

// Append copies one record into a pre-allocated slot under the lock — the
// real ring's hot path: no allocation.
//
//soda:noalloc
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	r.buf[r.next&r.mask] = v
	r.next++
	r.mu.Unlock()
}

// Snapshot copies the ring out for exposition. The copy is the point — but
// it allocates, so it must never carry the noalloc tag.
//
//soda:noalloc
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, len(r.buf)) // want `heap allocation in //soda:noalloc function \(Ring\)\.Snapshot: make\(\[\]go\.shape\..*, len\(r\.buf\)\) escapes to heap`
	copy(out, r.buf)
	return out
}
