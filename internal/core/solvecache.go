package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/units"
	"repro/internal/video"
)

// SolveCache is a sharded, fixed-capacity decision cache shared across
// controller instances. A production fleet runs thousands of sessions on the
// same bitrate ladder, and the quantized planning states they visit cluster
// tightly (buffers hover near the target, predictions near the sustainable
// rung), so most sessions re-solve planning problems another session already
// solved. Decisions are a pure function of the quantized planning state (the
// controller solves *at* the quantized state, see Config.MemoQuantum), so a
// cached decision is bit-identical to what the solver would return — the
// shared-cache conformance contract in internal/abrtest pins this.
//
// Layout: a power-of-two number of shards (GOMAXPROCS-derived by default),
// each a fixed-size open-addressing table guarded by its own mutex. Keys
// carry a model fingerprint (ladder, segment duration, buffer cap, cost
// weights, solver selection) alongside the quantized planning state, so
// distinct configurations can never alias; every hit re-compares the full
// key, so a hash or slot collision degrades to a miss, never to a wrong
// decision.
// Lookups and inserts are allocation-free; the only allocations happen in
// NewSolveCache and Stats.
//
// A SolveCache is safe for concurrent use and is injected state: it holds no
// package-level variables and launches no goroutines, which keeps controllers
// wired to it purecontroller-clean (see DESIGN.md).
type SolveCache struct {
	shards    []cacheShard
	shardMask uint64
	probe     uint64
}

// cacheProbeWindow is the linear-probe length of each open-addressing table:
// a key lives in one of the probe-window slots after its home slot. Entries
// are never deleted (only overwritten or flushed wholesale by Reset), so a
// lookup can stop at the first empty slot.
const cacheProbeWindow = 8

// maxCacheCapacity bounds the total entry count (~48 B each, so the largest
// cache is ~800 MB — far beyond any sensible configuration).
const maxCacheCapacity = 1 << 24

// cacheKey identifies one planning problem fleet-wide: the model fingerprint
// plus the exact state handed to the solver. The state components are the
// quantized values Decide solves at, so key equality implies the solver would
// reproduce the stored decision bit-identically.
type cacheKey struct {
	fp      uint64        // model fingerprint: ladder, Δt, buffer cap, weights, solver
	x       units.Seconds // (quantized) buffer level passed to the solver
	w       units.Mbps    // (quantized) throughput prediction passed to the solver
	prev    int32         // previous rung (abr.NoRung at session start)
	k       int32         // effective horizon
	maxRung int32         // §5.1 throughput cap on candidate rungs
}

// cacheSlot is one open-addressing table entry. The full key is stored so
// collisions are detected by comparison, never trusted from the hash.
type cacheSlot struct {
	key  cacheKey
	rung int32
	used bool
}

// cacheShard is one independently locked table. The trailing pad keeps
// neighbouring shards' mutexes off one cache line so uncontended shards do
// not false-share under parallel load. The //soda:guard annotations make the
// lock protocol a soda-vet invariant: every access to the table and its
// counters must hold the shard mutex (mask is immutable after construction
// and deliberately unannotated — shardFor reads it lock-free).
type cacheShard struct {
	mu sync.Mutex
	//soda:guard mu
	entries []cacheSlot
	mask    uint64
	//soda:guard mu
	lookups uint64
	//soda:guard mu
	hits uint64
	//soda:guard mu
	conflict uint64
	//soda:guard mu
	evicted uint64
	//soda:guard mu
	used uint64
	_    [64]byte
}

// NewSolveCache builds a shared solve cache with at least the given entry
// capacity, spread over a GOMAXPROCS-derived power-of-two shard count. It
// panics on a non-positive or absurd capacity: cache sizes are program
// constants in every harness, exactly like controller configs.
func NewSolveCache(capacity int) *SolveCache {
	return NewSolveCacheSharded(capacity, 0)
}

// NewSolveCacheSharded is NewSolveCache with an explicit shard count (rounded
// up to a power of two, capped at 256); shards <= 0 derives the count from
// GOMAXPROCS. Tests use a single small shard to force collisions.
func NewSolveCacheSharded(capacity, shards int) *SolveCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: non-positive solve cache capacity %d", capacity))
	}
	if capacity > maxCacheCapacity {
		panic(fmt.Sprintf("core: solve cache capacity %d exceeds %d", capacity, maxCacheCapacity))
	}
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
	perShard := (capacity + shardCount - 1) / shardCount
	size := cacheProbeWindow * 2 // floor: a probe window must fit with room to spare
	for size < perShard {
		size <<= 1
	}
	c := &SolveCache{
		shards:    make([]cacheShard, shardCount),
		shardMask: uint64(shardCount - 1),
		probe:     cacheProbeWindow,
	}
	for i := range c.shards {
		c.shards[i].entries = make([]cacheSlot, size)
		c.shards[i].mask = uint64(size - 1)
	}
	return c
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash mixes every key field. Shard selection uses the high bits and slot
// selection the low bits, so the two indices stay uncorrelated.
func (k cacheKey) hash() uint64 {
	h := mix64(k.fp ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ math.Float64bits(float64(k.x)))
	h = mix64(h ^ math.Float64bits(float64(k.w)))
	h = mix64(h ^ uint64(uint32(k.prev)) ^ uint64(uint32(k.k))<<21 ^ uint64(uint32(k.maxRung))<<42)
	return h
}

// shardFor picks the shard (high hash bits) and the home slot base (low bits).
func (c *SolveCache) shardFor(h uint64) (*cacheShard, uint64) {
	sh := &c.shards[(h>>48)&c.shardMask]
	return sh, h & sh.mask
}

// get returns the cached first-rung decision for the key, or a miss. A hit
// requires full-key equality; traversing at least one occupied non-matching
// slot on the way to a miss is counted as a conflict.
//
//soda:noalloc
func (c *SolveCache) get(k cacheKey) (int32, bool) {
	sh, base := c.shardFor(k.hash())
	sh.mu.Lock()
	sh.lookups++
	collided := false
	for i := uint64(0); i < c.probe; i++ {
		s := &sh.entries[(base+i)&sh.mask]
		if !s.used {
			break
		}
		if s.key == k {
			sh.hits++
			rung := s.rung
			sh.mu.Unlock()
			return rung, true
		}
		collided = true
	}
	if collided {
		sh.conflict++
	}
	sh.mu.Unlock()
	return 0, false
}

// put stores a solved decision: into the key's slot if present (idempotent —
// every writer stores the same pure-function value), else the first empty
// slot of the probe window, else over the home slot (a deterministic
// eviction; the evicted problem is simply re-solved on its next miss).
//
//soda:noalloc
func (c *SolveCache) put(k cacheKey, rung int32) {
	sh, base := c.shardFor(k.hash())
	sh.mu.Lock()
	var victim *cacheSlot
	for i := uint64(0); i < c.probe; i++ {
		s := &sh.entries[(base+i)&sh.mask]
		if !s.used {
			victim = s
			sh.used++
			break
		}
		if s.key == k {
			victim = s
			break
		}
	}
	if victim == nil {
		victim = &sh.entries[base]
		sh.evicted++
	}
	*victim = cacheSlot{key: k, rung: rung, used: true}
	sh.mu.Unlock()
}

// Reset empties the cache and zeroes its statistics. A shared cache
// deliberately survives session boundaries; Reset exists for harnesses that
// reuse one cache across otherwise-independent experiments.
func (c *SolveCache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for j := range sh.entries {
			sh.entries[j] = cacheSlot{}
		}
		sh.lookups, sh.hits, sh.conflict, sh.evicted, sh.used = 0, 0, 0, 0, 0
		sh.mu.Unlock()
	}
}

// CacheStats is a point-in-time snapshot of a shared cache's traffic and
// occupancy, surfaced through experiment reports and the benchmark fleet.
type CacheStats struct {
	// Lookups and Hits count probe traffic across all shards.
	Lookups uint64
	Hits    uint64
	// Conflicts counts lookups that traversed at least one occupied
	// non-matching slot before missing — the hash/slot collisions the
	// full-key compare demoted to misses.
	Conflicts uint64
	// Evictions counts inserts that overwrote a live entry because the whole
	// probe window was occupied by other keys.
	Evictions uint64
	// Entries is the number of live entries; Capacity the total slot count.
	Entries  int
	Capacity int
	// Shards is the shard count; ShardFill the per-shard occupancy fraction.
	Shards    int
	ShardFill []float64
}

// HitRate returns Hits/Lookups, or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// String renders the one-line summary used by the experiment reports.
func (s CacheStats) String() string {
	fill := 0.0
	if s.Capacity > 0 {
		fill = float64(s.Entries) / float64(s.Capacity)
	}
	return fmt.Sprintf("lookups %d hits %d (%.1f%%) conflicts %d evictions %d fill %.1f%% (%d shards)",
		s.Lookups, s.Hits, 100*s.HitRate(), s.Conflicts, s.Evictions, 100*fill, s.Shards)
}

// Stats snapshots the cache counters. It locks each shard in turn, so
// concurrent traffic keeps flowing while the snapshot is taken.
func (c *SolveCache) Stats() CacheStats {
	st := CacheStats{
		Shards:    len(c.shards),
		ShardFill: make([]float64, len(c.shards)),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Lookups += sh.lookups
		st.Hits += sh.hits
		st.Conflicts += sh.conflict
		st.Evictions += sh.evicted
		st.Entries += int(sh.used)
		st.Capacity += len(sh.entries)
		st.ShardFill[i] = float64(sh.used) / float64(len(sh.entries))
		sh.mu.Unlock()
	}
	return st
}

// modelFingerprint hashes every input that, together with the solver state
// (buffer, prediction, previous rung, horizon, rung cap), determines the
// committed decision: the ladder's bitrates and segment duration, the buffer
// cap (it sets both xmax and the derived target), the cost weights and
// distortion choice, and which solver runs. Two controllers share cache
// entries exactly when their fingerprints match. The planning quantum
// (MemoQuantum) is deliberately excluded because it shapes which states
// occur, not what the solver returns for a state; the deprecated
// SolveMemoSize changes nothing at all.
func modelFingerprint(cfg Config, ladder video.Ladder, bufferCap units.Seconds) uint64 {
	h := uint64(0xd6e8feb86659fd93)
	mixFloat := func(f float64) { h = mix64(h ^ math.Float64bits(f)) }
	mixFloat(float64(ladder.SegmentSeconds))
	h = mix64(h ^ uint64(ladder.Len()))
	for i := 0; i < ladder.Len(); i++ {
		mixFloat(float64(ladder.Mbps(i)))
	}
	mixFloat(float64(bufferCap))
	mixFloat(cfg.Beta)
	mixFloat(cfg.Gamma)
	mixFloat(float64(cfg.TargetBuffer))
	mixFloat(cfg.TargetFraction)
	mixFloat(cfg.Epsilon)
	bits := uint64(cfg.Distortion) << 2
	if cfg.UseBruteForce {
		bits |= 1
	}
	if cfg.DisablePruning {
		// Pruning never changes decisions (the bound is admissible), but the
		// two search modes are kept apart so a pruning bug could never be
		// masked by cache hits from the other mode.
		bits |= 2
	}
	return mix64(h ^ bits)
}
