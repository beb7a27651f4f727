// Package arena is the fleet simulator's static session store.
//
// A cohort of a hundred thousand sessions held as individual heap structs
// pays twice at decision time: once in allocator/GC pressure, and once in
// cache misses for the pointer chase from session to controller. The arena
// flattens that layout into slab-backed parallel arrays — controllers, player
// dynamics and QoE-watchdog state each live in a contiguous array indexed by
// slot — so one session's hot state is a handful of adjacent cache lines.
//
// The store is static: a slot, once claimed, belongs to its session for the
// arena's lifetime. Nothing is freed, so there are no handles, generations
// or free lists — Alloc hands out the slot's pointers directly, and they stay
// valid for as long as the arena lives. Growth never moves memory: a shard
// grows by appending fresh slabs, so pointers into earlier slabs stay put.
//
// Concurrency layout: each shard owns its slots, and Alloc takes the shard's
// mutex, so concurrent Allocs are safe. Accessing the *returned* state
// concurrently is the caller's contract, exactly as with heap-allocated
// sessions: the fleet simulator partitions shards across its workers.
package arena

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/units"
)

// Slab geometry: slots live in fixed-size slabs. 1024 slots per slab keeps a
// slab's controller array under ~1 MB while amortising growth; 4096 slabs
// bound a shard at ~4.2M sessions.
const (
	slabBits      = 10
	slabSize      = 1 << slabBits
	slabMask      = slabSize - 1
	maxSlabs      = 1 << 12
	shardCapacity = maxSlabs * slabSize
)

// State is one session's player dynamics — the per-decision mutable block,
// kept to 48 bytes so a decision touches one cache line of dynamics. The
// field meanings are harness conventions, not arena policy: the fleet
// simulator uses all of them but Deadline, the load generator its
// buffer/cursor subset.
type State struct {
	// Buffer and Stall are the simulated playback buffer and the cumulative
	// rebuffer time charged to this session.
	Buffer units.Seconds
	Stall  units.Seconds
	// Deadline is always 0: nothing writes it. The fleet schedules through
	// DueTick. It stays because the benchmark's fleet twin check compares
	// it.
	Deadline units.Seconds
	// PrevRung and Segment are the controller-visible session history.
	PrevRung int32
	Segment  int32
	// Trace and Cursor locate the session in the shared trace pool.
	Trace  int32
	Cursor int32
	// DueTick and Next are owned by the fleet time-wheel: the absolute due
	// tick of the scheduled event and the intrusive bucket-chain link.
	DueTick uint32
	Next    uint32
}

// slab is one fixed-size block of parallel session arrays.
type slab struct {
	ctrl  [slabSize]core.Controller
	state [slabSize]State
	watch [slabSize]flightrec.SessionWatch
}

// shard is one independently locked partition; the trailing pad keeps
// neighbouring shards' mutexes off one cache line.
type shard struct {
	mu sync.Mutex
	//soda:guard mu
	slabs []*slab
	//soda:guard mu
	next uint32

	cap uint32
	_   [64]byte
}

// Arena is a sharded struct-of-arrays session store. All methods are safe
// for concurrent use; see the package comment for the ownership contract on
// returned pointers.
type Arena struct {
	shards []shard
}

// New builds an arena with the given shard count (at least 1). perShardCap
// bounds each shard's slot count; non-positive means the geometric maximum
// (~4.2M slots per shard).
func New(shards, perShardCap int) *Arena {
	if shards < 1 {
		shards = 1
	}
	if perShardCap <= 0 || perShardCap > shardCapacity {
		perShardCap = shardCapacity
	}
	a := &Arena{shards: make([]shard, shards)}
	for i := range a.shards {
		a.shards[i].cap = uint32(perShardCap)
	}
	return a
}

// Alloc claims the next unused slot of the given shard and returns its
// controller, player state and watchdog state, all zero. It returns ok=false
// when the shard index is out of range or the shard is at capacity. Callers
// run core.(*Controller).Init on the controller; the arena deliberately does
// not reach into controller internals.
func (a *Arena) Alloc(shardIdx int) (*core.Controller, *State, *flightrec.SessionWatch, bool) {
	if shardIdx < 0 || shardIdx >= len(a.shards) {
		return nil, nil, nil, false
	}
	sh := &a.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.next >= sh.cap {
		return nil, nil, nil, false
	}
	if int(sh.next>>slabBits) == len(sh.slabs) {
		sh.slabs = append(sh.slabs, new(slab))
	}
	sl, slot := sh.slabs[sh.next>>slabBits], sh.next&slabMask
	sh.next++
	return &sl.ctrl[slot], &sl.state[slot], &sl.watch[slot], true
}

// Stats is a point-in-time snapshot of the arena's occupancy.
type Stats struct {
	Shards int
	// Slabs is the total slab count across shards (committed memory).
	Slabs int
	// HighWater is the total number of slots claimed.
	HighWater int
}

// String renders the snapshot for test failures and debug logs.
func (s Stats) String() string {
	return fmt.Sprintf("arena: shards=%d slabs=%d highwater=%d", s.Shards, s.Slabs, s.HighWater)
}

// Stats snapshots the occupancy counters.
func (a *Arena) Stats() Stats {
	st := Stats{Shards: len(a.shards)}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		st.Slabs += len(sh.slabs)
		st.HighWater += int(sh.next)
		sh.mu.Unlock()
	}
	return st
}
