// Package sessiontable is the session control plane behind soda-server's
// /decide surface: a sharded session table with idle (TTL) eviction,
// token-bucket per-client admission control, and a bounded in-flight
// semaphore for backpressure.
//
// The package owns session *lifecycle* only — creation, lookup, last-use
// tracking, idle eviction, capacity admission, drain — never the decision
// inputs. A session's value (the controller and its per-session state) is a
// type parameter the table never looks into: it lives inside the table's
// entry, so a session is one allocation, and eviction drops it with the
// entry. Evicting and recreating a session can therefore change nothing
// about what the solver is asked: that is the SessionTableConformance
// contract pinned in internal/httpseg.
//
// Concurrency layout follows core.SolveCache: a power-of-two shard count
// (GOMAXPROCS-derived by default), one mutex per shard, cache-line padding
// between shards. Each shard also threads its entries on an intrusive
// recency list ordered by last Acquire, so admission into a full shard looks
// at the least recently acquired entries instead of scanning the shard. The
// steady-state path — Acquire of an existing session, then Release — is
// allocation-free: a map lookup, a relink of the session to the newest end
// of the list (a few pointer writes under the shard lock Acquire already
// holds), two atomic updates, no channel operations under any lock.
//
// Clocks are injected: every method that needs time takes a timestamp on the
// caller's nanosecond clock — any clock, so long as the caller uses the same
// one throughout (soda-server's decide service passes nanoseconds since it
// started, on the monotonic clock) — so TTL boundary behaviour is testable
// without sleeping and the package itself never reads a clock.
package sessiontable

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Acquire failure modes. They are sentinel errors so harnesses can map them
// onto transport responses (503 draining / at capacity) without string
// matching.
var (
	// ErrDraining is returned once Drain has begun: the table stops admitting
	// both new and existing sessions so in-flight work can finish.
	ErrDraining = errors.New("sessiontable: draining")
	// ErrCapacity is returned when creating a session would exceed the
	// configured maximum and the home shard's least recently acquired idle
	// entry cannot make room: it is within its TTL, or every entry is held.
	ErrCapacity = errors.New("sessiontable: at capacity")
)

// maxTableSessions bounds the configurable capacity (~200 B of table state
// per session before the harness's own value, so the largest table is a few
// GB — beyond any single-host configuration worth supporting).
const maxTableSessions = 1 << 26

// Session is one tracked session: the table's bookkeeping plus the
// harness's per-session state V, held by value so the entry is the session's
// only allocation. The table owns the bookkeeping fields; Value belongs to
// the holder between Acquire and Release.
//
// Mu serialises the holder's per-session work (the decide critical section).
// The table itself never takes Mu: refcounting, not locking, is what keeps
// the sweep from evicting a session mid-decision.
type Session[V any] struct {
	// Value is the harness's per-session state, initialised by the create
	// callback passed to Acquire and never touched by the table again.
	Value V

	// Mu is the holder's per-session critical-section lock.
	Mu sync.Mutex

	key string
	id  int64

	// lastUse is the caller's nanosecond clock at the last Release; the TTL
	// sweep reads it without the shard lock, so it is atomic.
	lastUse atomic.Int64
	// refs counts in-flight holders. Incremented under the shard lock in
	// Acquire, decremented lock-free in Release; the sweep only evicts
	// sessions it observes at zero while holding the shard lock, so a
	// session can never disappear from under an active holder.
	refs atomic.Int32

	// older and newer link the session into its home shard's recency list
	// (older points toward the least recently acquired end). Both are
	// guarded by the home shard's mu; //soda:guard cannot say so because it
	// only names a mutex of the same struct.
	older, newer *Session[V]
}

// ID returns the session's table-assigned numeric id (stable for the
// session's lifetime; a recreated session gets a fresh id).
func (s *Session[V]) ID() int64 { return s.id }

// Key returns the session key the entry is stored under.
func (s *Session[V]) Key() string { return s.key }

// Config parameterises a Table.
type Config struct {
	// MaxSessions caps the live session count (approximately: the cap is
	// split evenly across shards, so a pathologically skewed key
	// distribution saturates one shard before the global total is reached).
	// Non-positive panics: capacity is a program constant in every harness.
	MaxSessions int
	// TTLNanos is the idle-eviction threshold: a session whose last Release
	// is more than TTLNanos before the sweep's timestamp is evicted.
	// Non-positive disables idle eviction (Sweep becomes a no-op).
	TTLNanos int64
	// Shards overrides the shard count (rounded up to a power of two,
	// capped at 256); non-positive derives it from GOMAXPROCS.
	Shards int
}

// tableShard is one independently locked partition of the session table. The
// trailing pad keeps neighbouring shards' mutexes off one cache line.
//
// oldest and newest are the ends of the shard's recency list, which holds
// exactly the sessions in entries, ordered by their last Acquire.
type tableShard[V any] struct {
	mu sync.Mutex
	//soda:guard mu
	entries map[string]*Session[V]
	//soda:guard mu
	oldest *Session[V]
	//soda:guard mu
	newest *Session[V]
	_      [64]byte
}

// Table is the sharded session table over per-session state V. All methods
// are safe for concurrent use. The table launches no goroutines and reads no
// clocks; the harness drives the sweep.
type Table[V any] struct {
	shards   []tableShard[V]
	mask     uint64
	perShard int

	draining atomic.Bool
	nextID   atomic.Int64
	active   atomic.Int64

	// Lifecycle counters, exposed via Stats for the harness's metric gauges.
	created          atomic.Uint64
	evictedIdle      atomic.Uint64
	rejectedCapacity atomic.Uint64
	rejectedDraining atomic.Uint64

	ttl int64
}

// New builds a session table. It panics on a non-positive or absurd
// capacity, matching core.NewSolveCache's contract.
func New[V any](cfg Config) *Table[V] {
	if cfg.MaxSessions <= 0 {
		panic(fmt.Sprintf("sessiontable: non-positive capacity %d", cfg.MaxSessions))
	}
	if cfg.MaxSessions > maxTableSessions {
		panic(fmt.Sprintf("sessiontable: capacity %d exceeds %d", cfg.MaxSessions, maxTableSessions))
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > 256 {
		shards = 256
	}
	shardCount := 1
	for shardCount < shards {
		shardCount <<= 1
	}
	perShard := (cfg.MaxSessions + shardCount - 1) / shardCount
	t := &Table[V]{
		shards:   make([]tableShard[V], shardCount),
		mask:     uint64(shardCount - 1),
		perShard: perShard,
		ttl:      cfg.TTLNanos,
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*Session[V], perShard/4+1)
	}
	return t
}

// shardFor maps a session key onto its home shard (FNV-1a, like the solve
// cache's key hash — cheap and allocation-free).
func (t *Table[V]) shardFor(key string) *tableShard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &t.shards[h&t.mask]
}

// Acquire returns the session stored under key, creating it with create when
// absent. The returned session has its refcount raised: the caller must pair
// every successful Acquire with exactly one Release. now is the caller's
// nanosecond clock (used as the creation's initial last-use time).
//
// The create callback, when non-nil, receives the fresh Session (its ID and
// Key already assigned, Value zero) and initialises Value in place; it runs
// under the home shard's lock, so it must not call back into the table or
// block.
//
// Failure modes: ErrDraining once Drain has begun, and ErrCapacity when the
// home shard is full and reclaimLocked finds nothing to evict. A creation
// allocates exactly one object, the entry with its Value; on the
// steady-state path (session exists) Acquire performs no allocation and
// moves the session to the newest end of the shard's recency list.
func (t *Table[V]) Acquire(key string, now int64, create func(s *Session[V])) (*Session[V], error) {
	if t.draining.Load() {
		t.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	sh := t.shardFor(key)
	sh.mu.Lock()
	if s, ok := sh.entries[key]; ok {
		s.refs.Add(1)
		if s != sh.newest {
			sh.unlinkLocked(s)
			sh.pushNewestLocked(s)
		}
		sh.mu.Unlock()
		return s, nil
	}
	if len(sh.entries) >= t.perShard {
		if !sh.reclaimLocked(t.ttl, now) {
			sh.mu.Unlock()
			t.rejectedCapacity.Add(1)
			return nil, ErrCapacity
		}
		t.active.Add(-1)
		t.evictedIdle.Add(1)
	}
	s := &Session[V]{key: key, id: t.nextID.Add(1) - 1}
	s.lastUse.Store(now)
	s.refs.Store(1)
	if create != nil {
		create(s)
	}
	sh.entries[key] = s
	sh.pushNewestLocked(s)
	sh.mu.Unlock()
	t.active.Add(1)
	t.created.Add(1)
	return s, nil
}

// reclaimLocked tries to make room in a full shard by evicting its least
// recently acquired idle entry, reporting whether it evicted one. It walks the recency list from the oldest end, skips
// entries with holders, and stops at the first idle entry: that entry is
// evicted if its TTL has expired, and otherwise nothing is. Capacity
// pressure alone never evicts a held or a live (non-expired) session —
// admission control, not LRU churn, is the policy at the limit. The cost is
// O(held + 1), not O(shard).
//
// Order by last Acquire can differ from order by last Release only across
// overlapping holds: when the first idle entry E has not expired, any
// later idle entry F was acquired after E was, hence released no earlier
// than E's acquire, so F has been idle past the TTL by less than E's hold
// lasted. A reclaim the smallest-lastUse rule would grant is therefore
// delayed by at most one hold. Callers hold mu and account the eviction in
// the table counters on success.
//
//soda:locked mu
func (sh *tableShard[V]) reclaimLocked(ttl, now int64) bool {
	if ttl <= 0 {
		return false
	}
	s := sh.oldest
	for s != nil && s.refs.Load() != 0 {
		s = s.newer
	}
	if s == nil || now-s.lastUse.Load() < ttl {
		return false
	}
	sh.removeLocked(s)
	return true
}

// pushNewestLocked appends an unlinked session at the newest end of the
// recency list.
//
//soda:locked mu
func (sh *tableShard[V]) pushNewestLocked(s *Session[V]) {
	s.older, s.newer = sh.newest, nil
	if sh.newest != nil {
		sh.newest.newer = s
	} else {
		sh.oldest = s
	}
	sh.newest = s
}

// unlinkLocked takes a session out of the recency list.
//
//soda:locked mu
func (sh *tableShard[V]) unlinkLocked(s *Session[V]) {
	if s.older != nil {
		s.older.newer = s.newer
	} else {
		sh.oldest = s.newer
	}
	if s.newer != nil {
		s.newer.older = s.older
	} else {
		sh.newest = s.older
	}
	s.older, s.newer = nil, nil
}

// removeLocked drops a session from the shard: map and recency list.
//
//soda:locked mu
func (sh *tableShard[V]) removeLocked(s *Session[V]) {
	delete(sh.entries, s.key)
	sh.unlinkLocked(s)
}

// Release returns a session acquired with Acquire, stamping its last-use
// time. Allocation-free.
func (t *Table[V]) Release(s *Session[V], now int64) {
	s.lastUse.Store(now)
	s.refs.Add(-1)
}

// Sweep evicts every session idle longer than the TTL as of now and returns
// the eviction count. Sessions with in-flight holders are skipped (their
// last-use stamp is stale while they work). A zero-TTL table never evicts.
func (t *Table[V]) Sweep(now int64) int {
	if t.ttl <= 0 {
		return 0
	}
	evicted := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		// Walk the whole list: an expired entry can sit behind a live one
		// (see reclaimLocked).
		for s := sh.oldest; s != nil; {
			next := s.newer
			if s.refs.Load() == 0 && now-s.lastUse.Load() >= t.ttl {
				sh.removeLocked(s)
				evicted++
			}
			s = next
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		t.active.Add(int64(-evicted))
		t.evictedIdle.Add(uint64(evicted))
	}
	return evicted
}

// Drain stops admission: every subsequent Acquire fails with ErrDraining.
// It returns the live session count at the moment admission stopped — the
// "drained session count" the server reports on SIGTERM. In-flight holders
// are unaffected; the harness waits for them via its in-flight semaphore.
func (t *Table[V]) Drain() int {
	t.draining.Store(true)
	return int(t.active.Load())
}

// Draining reports whether Drain has been called.
func (t *Table[V]) Draining() bool { return t.draining.Load() }

// Len returns the live session count.
func (t *Table[V]) Len() int { return int(t.active.Load()) }

// Stats is a point-in-time snapshot of the table's lifecycle counters.
type Stats struct {
	Active           int
	Shards           int
	PerShardCapacity int
	Created          uint64
	EvictedIdle      uint64
	RejectedCapacity uint64
	RejectedDraining uint64
}

// Stats snapshots the lifecycle counters.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Active:           int(t.active.Load()),
		Shards:           len(t.shards),
		PerShardCapacity: t.perShard,
		Created:          t.created.Load(),
		EvictedIdle:      t.evictedIdle.Load(),
		RejectedCapacity: t.rejectedCapacity.Load(),
		RejectedDraining: t.rejectedDraining.Load(),
	}
}
