// Package guarded exercises the guardedby analyzer: true positives carry
// want comments, everything else is the false-positive-avoidance corpus.
package guarded

import (
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Table is shared mutable state with an annotated lock protocol.
type Table struct {
	mu sync.Mutex
	//soda:guard mu
	count int
	//soda:guard mu
	entries []int
	hits    int64 //soda:guard mu
	// plain is deliberately unannotated: lock-free access is fine.
	plain int
}

// Locked accesses under a scoped Lock/Unlock pair are fine.
func (t *Table) Locked() int {
	t.mu.Lock()
	n := t.count
	t.mu.Unlock()
	return n
}

// DeferLocked holds the lock to function exit via defer.
func (t *Table) DeferLocked() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	t.entries = append(t.entries, t.count)
}

// EarlyReturn unlocks inside a terminating branch; the fall-through path is
// still locked.
func (t *Table) EarlyReturn(stop bool) int {
	t.mu.Lock()
	if stop {
		t.mu.Unlock()
		return 0
	}
	n := t.count // still locked here
	t.mu.Unlock()
	return n
}

// Unlocked reads the guarded field with no lock held.
func (t *Table) Unlocked() int {
	return t.count // want `access to t\.count in \(Table\)\.Unlocked without holding t\.mu`
}

// AfterUnlock touches the field after releasing.
func (t *Table) AfterUnlock() int {
	t.mu.Lock()
	t.mu.Unlock()
	return t.count // want `access to t\.count in \(Table\)\.AfterUnlock without holding t\.mu`
}

// BranchLeak locks in only one branch; the merge drops the lock.
func (t *Table) BranchLeak(cond bool) {
	if cond {
		t.mu.Lock()
	}
	t.count++ // want `access to t\.count in \(Table\)\.BranchLeak without holding t\.mu`
	if cond {
		t.mu.Unlock()
	}
}

// helper is tagged as called-with-lock-held: accesses inside are fine.
//
//soda:locked mu
func (t *Table) helper() int {
	return t.count
}

// badHelper has no tag, so its access is a finding.
func (t *Table) badHelper() int {
	return t.count // want `access to t\.count in \(Table\)\.badHelper without holding t\.mu`
}

// Atomic access to a guarded field is sanctioned without the lock.
func (t *Table) AtomicHit() int64 {
	return atomic.LoadInt64(&t.hits)
}

// PlainField is unannotated: no finding.
func (t *Table) PlainField() int {
	return t.plain
}

// NewTable builds a fresh object; constructor accesses need no lock.
func NewTable(n int) *Table {
	t := &Table{}
	t.count = n
	t.entries = make([]int, 0, n)
	return t
}

// valueFresh covers the value-literal and new(T) freshness shapes.
func valueFresh() int {
	var a = Table{}
	a.count = 1
	b := new(Table)
	b.count = 2
	return a.count + b.count
}

// Sleeping blocks while holding an annotated lock.
func (t *Table) Sleeping() {
	t.mu.Lock()
	defer t.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding t\.mu`
	t.count++
}

// ChannelUnderLock sends on a channel while locked.
func (t *Table) ChannelUnderLock(ch chan int) {
	t.mu.Lock()
	ch <- t.count // want `channel send while holding t\.mu`
	t.mu.Unlock()
}

// ReceiveUnderLock receives while locked.
func (t *Table) ReceiveUnderLock(ch chan int) {
	t.mu.Lock()
	t.count = <-ch // want `channel receive while holding t\.mu`
	t.mu.Unlock()
}

// SelectUnderLock selects while locked.
func (t *Table) SelectUnderLock(ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select { // want `select while holding t\.mu`
	case v := <-ch:
		t.count = v
	default:
	}
}

// IOUnderLock calls into a blocking stdlib package while locked.
func (t *Table) IOUnderLock() {
	t.mu.Lock()
	defer t.mu.Unlock()
	os.Getwd() // want `call into package os while holding t\.mu`
	t.count++
}

// HTTPUnderLock calls net/http while locked.
func (t *Table) HTTPUnderLock() {
	t.mu.Lock()
	defer t.mu.Unlock()
	http.Get("http://example.invalid") // want `call into package net/http while holding t\.mu`
}

// BlockingOutsideLock is allowed: nothing held.
func (t *Table) BlockingOutsideLock(ch chan int) {
	time.Sleep(time.Millisecond)
	ch <- 1
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

// ClosureUnderLock: the closure body runs later under unknown locks, so its
// unguarded access is a finding, while building it under the lock is not a
// blocking operation.
func (t *Table) ClosureUnderLock() func() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return func() int {
		return t.count // want `access to t\.count in \(Table\)\.ClosureUnderLock without holding t\.mu`
	}
}

// LoopLocked locks and unlocks per iteration — the shard-walk idiom.
type Sharded struct {
	shards []Table
}

func (s *Sharded) Walk() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.count
		sh.mu.Unlock()
	}
	return total
}

// ArenaShard mirrors the session-arena shard shape: allocation bookkeeping
// (free list, bump cursor) guarded by mu, while generation counters are
// atomic wrappers so the lock-free probe path can validate a handle without
// touching guarded state.
type ArenaShard struct {
	mu sync.Mutex
	//soda:guard mu
	free []uint32
	//soda:guard mu
	next uint32
	gen  [4]atomic.Uint32
	data [4]int
}

// AllocSlot pops the free list or bumps the cursor, all under the lock.
func (s *ArenaShard) AllocSlot() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	idx := s.next
	s.next++
	return idx
}

// FreeSlot bumps the slot generation and pushes it back under the lock.
func (s *ArenaShard) FreeSlot(idx uint32) {
	s.mu.Lock()
	s.gen[idx].Add(1)
	s.free = append(s.free, idx)
	s.mu.Unlock()
}

// Probe is the sanctioned lock-free read path: only the atomic generation
// and the handle-holder-owned slot data, no guarded allocation state.
func (s *ArenaShard) Probe(idx, gen uint32) (int, bool) {
	if s.gen[idx].Load() != gen {
		return 0, false
	}
	v := s.data[idx]
	if s.gen[idx].Load() != gen {
		return 0, false
	}
	return v, true
}

// StaleHandleScan guesses whether a handle is stale by reading the free
// list lock-free — exactly the shortcut the guard annotation exists to
// catch: the scan races with AllocSlot's pop and FreeSlot's append.
func (s *ArenaShard) StaleHandleScan(idx uint32) bool {
	for _, f := range s.free { // want `access to s\.free in \(ArenaShard\)\.StaleHandleScan without holding s\.mu`
		if f == idx {
			return true
		}
	}
	return false
}

// Misguard exercises the malformed-annotation findings.
type Misguard struct {
	lock sync.RWMutex
	//soda:guard missing // want `field a is guarded by "missing", which is not a field of the same struct`
	a int
	//soda:guard b // want `field c is guarded by b, which is not a sync\.Mutex or sync\.RWMutex`
	c int
	b int
	//soda:guard lock
	d int
}

// RWLocked uses RLock/RUnlock on the RWMutex guard.
func (m *Misguard) RWLocked() int {
	m.lock.RLock()
	defer m.lock.RUnlock()
	return m.d
}

// Ring is the generic overwrite-oldest ring in the telemetry shape. Inside
// its methods the guarded fields are reached through an instance over the
// receiver's type parameter, and outside them through concrete
// instantiations; both must resolve to the annotated declaration.
type Ring[T any] struct {
	mu sync.Mutex
	//soda:guard mu
	buf  []T
	mask uint64
	//soda:guard mu
	next uint64
}

// NewRing builds a ring; the fresh composite literal is exempt.
func NewRing[T any](n int) *Ring[T] {
	r := &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
	r.next = 0
	return r
}

// Append is the real ring's hot path: clean.
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	r.buf[r.next&r.mask] = v
	r.next++
	r.mu.Unlock()
}

// held is the real ring's //soda:locked helper: clean.
//
//soda:locked mu
func (r *Ring[T]) held() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Snapshot is the real ring's reader: clean.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.held())
	start := r.next - uint64(len(out))
	for i := range out {
		out[i] = r.buf[(start+uint64(i))&r.mask]
	}
	return out
}

// Peek reads the buffer with no lock held.
func (r *Ring[T]) Peek() T {
	return r.buf[0] // want `access to r\.buf in \(Ring\)\.Peek without holding r\.mu`
}

// peekInts reads a concrete instantiation's buffer with no lock held.
func peekInts(r *Ring[int]) int {
	return r.buf[0] // want `access to r\.buf in peekInts without holding r\.mu`
}

// lockedInts locks a concrete instantiation: clean.
func lockedInts(r *Ring[int]) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
