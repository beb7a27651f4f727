package core

import (
	"testing"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

func TestSolveCacheRejectsBadSizes(t *testing.T) {
	for _, capacity := range []int{0, -1, maxCacheCapacity + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: no panic", capacity)
				}
			}()
			NewSolveCache(capacity)
		}()
	}
}

func TestSolveCacheShardCountIsPowerOfTwo(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8, 300} {
		c := NewSolveCacheSharded(1024, shards)
		n := len(c.shards)
		if n&(n-1) != 0 || n < 1 {
			t.Errorf("shards=%d: count %d not a power of two", shards, n)
		}
		if n > 256 {
			t.Errorf("shards=%d: count %d above cap", shards, n)
		}
	}
}

func TestSolveCacheRoundTrip(t *testing.T) {
	c := NewSolveCacheSharded(256, 2)
	k := cacheKey{fp: 42, x: units.Seconds(10.5), w: units.Mbps(7.25), prev: 2, k: 5, maxRung: 4}
	if _, ok := c.get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, 3)
	r, ok := c.get(k)
	if !ok || r != 3 {
		t.Fatalf("get = (%d, %v), want (3, true)", r, ok)
	}
	// A key differing in exactly one field must miss.
	for i, other := range []cacheKey{
		{fp: 43, x: k.x, w: k.w, prev: k.prev, k: k.k, maxRung: k.maxRung},
		{fp: k.fp, x: k.x + 0.01, w: k.w, prev: k.prev, k: k.k, maxRung: k.maxRung},
		{fp: k.fp, x: k.x, w: k.w + 0.01, prev: k.prev, k: k.k, maxRung: k.maxRung},
		{fp: k.fp, x: k.x, w: k.w, prev: k.prev + 1, k: k.k, maxRung: k.maxRung},
		{fp: k.fp, x: k.x, w: k.w, prev: k.prev, k: k.k - 1, maxRung: k.maxRung},
		{fp: k.fp, x: k.x, w: k.w, prev: k.prev, k: k.k, maxRung: k.maxRung - 1},
	} {
		if _, ok := c.get(other); ok {
			t.Errorf("variant %d: hit on a different key", i)
		}
	}
	// Overwriting the same key keeps one entry (idempotent put).
	c.put(k, 3)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after duplicate put, want 1", st.Entries)
	}
}

func TestSolveCacheEvictionAndStats(t *testing.T) {
	c := NewSolveCacheSharded(16, 1) // one 16-slot shard
	keyAt := func(i int) cacheKey {
		return cacheKey{fp: 7, x: units.Seconds(float64(i) * 0.01), w: units.Mbps(5), prev: 1, k: 5, maxRung: 3}
	}
	for i := 0; i < 200; i++ {
		c.put(keyAt(i), int32(i%4))
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("200 inserts into 16 slots produced no evictions")
	}
	hits := 0
	for i := 0; i < 200; i++ {
		if r, ok := c.get(keyAt(i)); ok {
			hits++
			if r != int32(i%4) {
				t.Fatalf("key %d: cached %d, want %d (cross-contamination)", i, r, i%4)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no survivors after eviction churn")
	}
	st = c.Stats()
	if st.Lookups != 200 || int(st.Hits) != hits {
		t.Fatalf("stats lookups=%d hits=%d, want 200/%d", st.Lookups, st.Hits, hits)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate %v outside (0, 1]", st.HitRate())
	}
	c.Reset()
	st = c.Stats()
	if st.Entries != 0 || st.Lookups != 0 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("Reset left state behind: %s", st.String())
	}
	if _, ok := c.get(keyAt(0)); ok {
		t.Fatal("hit after Reset")
	}
}

func TestModelFingerprintSeparatesConfigurations(t *testing.T) {
	base := DefaultConfig()
	ladder := video.YouTube4K()
	cap20 := units.Seconds(20)
	fp := modelFingerprint(base, ladder, cap20)

	distinct := []struct {
		name string
		fp   uint64
	}{
		{"ladder", modelFingerprint(base, video.Mobile(), cap20)},
		{"buffer-cap", modelFingerprint(base, ladder, units.Seconds(15))},
		{"beta", modelFingerprint(withCfg(base, func(c *Config) { c.Beta = 0.3 }), ladder, cap20)},
		{"gamma", modelFingerprint(withCfg(base, func(c *Config) { c.Gamma = 2 }), ladder, cap20)},
		{"target-buffer", modelFingerprint(withCfg(base, func(c *Config) { c.TargetBuffer = units.Seconds(9) }), ladder, cap20)},
		{"target-fraction", modelFingerprint(withCfg(base, func(c *Config) { c.TargetFraction = 0.5 }), ladder, cap20)},
		{"epsilon", modelFingerprint(withCfg(base, func(c *Config) { c.Epsilon = 0.4 }), ladder, cap20)},
		{"distortion", modelFingerprint(withCfg(base, func(c *Config) { c.Distortion = DistortionInverse }), ladder, cap20)},
		{"brute-force", modelFingerprint(withCfg(base, func(c *Config) { c.UseBruteForce = true }), ladder, cap20)},
		{"no-pruning", modelFingerprint(withCfg(base, func(c *Config) { c.DisablePruning = true }), ladder, cap20)},
	}
	seen := map[uint64]string{fp: "base"}
	for _, d := range distinct {
		if d.fp == fp {
			t.Errorf("%s: fingerprint equals base", d.name)
		}
		if prev, dup := seen[d.fp]; dup {
			t.Errorf("%s: fingerprint collides with %s", d.name, prev)
		}
		seen[d.fp] = d.name
	}

	// The planning quantum shapes which states occur, not what the solver
	// returns for a state, and the deprecated SolveMemoSize does nothing, so
	// neither may change the fingerprint — two fleets differing only in
	// them share cache entries.
	same := []Config{
		withCfg(base, func(c *Config) { c.SolveMemoSize = 0 }),
		withCfg(base, func(c *Config) { c.SolveMemoSize = 4096 }),
		withCfg(base, func(c *Config) { c.MemoQuantum = 0.25 }),
	}
	for i, cfg := range same {
		if got := modelFingerprint(cfg, ladder, cap20); got != fp {
			t.Errorf("quantum/memo-size variant %d changed the fingerprint", i)
		}
	}
}

func withCfg(c Config, mutate func(*Config)) Config {
	mutate(&c)
	return c
}

// TestSharedCacheCrossSessionReuse replays one deterministic context stream
// through two consecutive controller instances sharing a cache: the second
// session must satisfy all of its lookups from the shared cache
// (zero new solves), decide identically to an uncached controller, and the
// traffic must surface through SolveStats.
func TestSharedCacheCrossSessionReuse(t *testing.T) {
	ladder := video.YouTube4K()
	cache := NewSolveCache(1 << 12)
	cfg := DefaultConfig()
	cfg.SharedCache = cache

	stream := func() []*abr.Context {
		rng := newSplitMix(99)
		out := make([]*abr.Context, 120)
		prev := abr.NoRung
		for i := range out {
			omega := units.Mbps(1 + rng.float()*50)
			out[i] = &abr.Context{
				Buffer:        units.Seconds(rng.float() * 18),
				BufferCap:     units.Seconds(20),
				PrevRung:      prev,
				Ladder:        ladder,
				SegmentIndex:  i,
				TotalSegments: 120,
				Predict:       func(units.Seconds) units.Mbps { return omega },
			}
			prev = int(rng.float() * float64(ladder.Len()))
		}
		return out
	}

	replay := func(c *Controller) []int {
		out := make([]int, 0, 120)
		for _, ctx := range stream() {
			out = append(out, c.Decide(ctx).Rung)
		}
		return out
	}

	want := replay(New(DefaultConfig(), ladder)) // uncached reference

	first := New(cfg, ladder)
	if got := replay(first); !equalInts(got, want) {
		t.Fatal("first shared-cache session diverged from the uncached reference")
	}
	second := New(cfg, ladder)
	if got := replay(second); !equalInts(got, want) {
		t.Fatal("second shared-cache session diverged from the uncached reference")
	}
	st := second.SolveStats()
	if st.SharedLookups == 0 {
		t.Fatal("second session never consulted the shared cache")
	}
	if st.SharedHits != st.SharedLookups {
		t.Fatalf("second session missed the warm cache: %d hits / %d lookups", st.SharedHits, st.SharedLookups)
	}
	if st.Solves != 0 {
		t.Fatalf("second session still solved %d problems with a warm cache", st.Solves)
	}
	if cs := cache.Stats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Fatalf("cache saw no reuse: %s", cs.String())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSolveCacheKey drives random put/get traffic from several model
// fingerprints over adjacent-quantum state grids against a deliberately tiny
// cache (constant slot collisions, constant evictions), shadowing every
// insert in a map. The invariant under test is the no-cross-contamination
// contract: a hit implies full-key equality, so the returned rung must be
// exactly the one stored for that key — never a value written under any
// other fingerprint or adjacent quantum.
func FuzzSolveCacheKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	// Adjacent-quantum walks: consecutive x/w steps under one fingerprint.
	f.Add([]byte{0x00, 0x04, 0x08, 0x0c, 0x10, 0x14, 0x18, 0x1c})
	f.Add([]byte{0x01, 0x05, 0x09, 0x0d, 0x11, 0x15, 0x19, 0x1d})
	// Same state grid visited by every fingerprint in turn.
	f.Add([]byte{0x00, 0x40, 0x80, 0xc0, 0x00, 0x40, 0x80, 0xc0})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x0f, 0x1f, 0x2f, 0x3f})

	// Four genuinely distinct model fingerprints (different config/ladder/cap
	// combinations), as a mixed fleet would produce.
	base := DefaultConfig()
	noPrune := base
	noPrune.DisablePruning = true
	fps := [4]uint64{
		modelFingerprint(base, video.YouTube4K(), units.Seconds(20)),
		modelFingerprint(base, video.Mobile(), units.Seconds(20)),
		modelFingerprint(base, video.YouTube4K(), units.Seconds(15)),
		modelFingerprint(noPrune, video.PrimeVideo(), units.Seconds(20)),
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		cache := NewSolveCacheSharded(16, 1)
		shadow := map[cacheKey]int32{}
		for _, op := range ops {
			// Decode one operation from a single byte: 2 fingerprint bits,
			// 2 bits each for the x and w grid steps (multiples of the
			// default 0.01 quantum), and one bit each for prev/k/do-get.
			k := cacheKey{
				fp:      fps[op>>6&3],
				x:       units.Seconds(float64(op>>4&3) * 0.01),
				w:       units.Mbps(5 + float64(op>>2&3)*0.01),
				prev:    int32(op >> 1 & 1),
				k:       int32(5 - int(op>>1&1)),
				maxRung: 3,
			}
			if op&1 == 0 {
				// The stored value mimics real usage: a pure function of the
				// key, distinct across fingerprints and states.
				v := int32(k.hash() & 0x7fff)
				cache.put(k, v)
				shadow[k] = v
			} else if got, ok := cache.get(k); ok {
				want, present := shadow[k]
				if !present {
					t.Fatalf("hit %d for a key never stored: %+v", got, k)
				}
				if got != want {
					t.Fatalf("key %+v: cached %d, shadow %d (cross-contamination)", k, got, want)
				}
			}
		}
		st := cache.Stats()
		if st.Entries > st.Capacity {
			t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
		}
	})
}
