package sessiontable

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// checkLists walks every shard's recency list against its map (see listed),
// checks that the shards together hold Len() sessions, and checks that the
// lifecycle counters balance: every session created is either evicted or
// still active.
func checkLists(t testing.TB, tb *Table[int64]) {
	t.Helper()
	total := 0
	for i := range tb.shards {
		list, err := listed(&tb.shards[i])
		if err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
		total += len(list)
	}
	if total != tb.Len() {
		t.Errorf("shards hold %d entries, Len() = %d", total, tb.Len())
	}
	if st := tb.Stats(); st.Created != st.EvictedIdle+uint64(st.Active) {
		t.Errorf("created %d != evicted %d + active %d", st.Created, st.EvictedIdle, st.Active)
	}
}

// listedKeys returns a shard's recency list as keys, oldest first.
func listedKeys(t testing.TB, sh *tableShard[int64]) []string {
	t.Helper()
	list, err := listed(sh)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(list))
	for i, s := range list {
		keys[i] = s.key
	}
	return keys
}

// listed returns a shard's recency list, oldest first, and an error unless
// the list is linked consistently in both directions and holds exactly the
// map's entries.
func listed(sh *tableShard[int64]) ([]*Session[int64], error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var list []*Session[int64]
	var prev *Session[int64]
	for s := sh.oldest; s != nil; s = s.newer {
		if s.older != prev {
			return list, fmt.Errorf("entry %q: older link does not point at its predecessor", s.key)
		}
		if sh.entries[s.key] != s {
			return list, fmt.Errorf("listed entry %q is not the map's entry for its key", s.key)
		}
		if list = append(list, s); len(list) > len(sh.entries) {
			return list, fmt.Errorf("list is longer than the map's %d entries", len(sh.entries))
		}
		prev = s
	}
	if prev != sh.newest {
		return list, fmt.Errorf("list does not end at the newest entry")
	}
	if len(list) != len(sh.entries) {
		return list, fmt.Errorf("list holds %d entries, map %d", len(list), len(sh.entries))
	}
	return list, nil
}

// TestReclaimOrder pins which entry admission into a full shard reclaims:
// the least recently acquired idle entry, and only when its TTL has expired.
// After every step the shard's recency list must hold exactly the expected
// keys, least recently acquired first. Times are in seconds of the injected
// clock; the TTL is 10 s.
func TestReclaimOrder(t *testing.T) {
	type step struct {
		acquire bool // false releases the key's hold
		key     string
		at      int64
	}
	acq := func(key string, at int64) step { return step{true, key, at} }
	rel := func(key string, at int64) step { return step{false, key, at} }
	cases := []struct {
		name     string
		capacity int
		steps    []step
		admitAt  int64
		want     string // the reclaimed key; "" wants ErrCapacity
	}{
		{
			name: "held-oldest-skipped", capacity: 3,
			steps:   []step{acq("a", 0), acq("b", 1), rel("b", 1), acq("c", 2), rel("c", 2)},
			admitAt: 20, want: "b",
		},
		{
			name: "oldest-idle-unexpired-rejects", capacity: 3,
			steps:   []step{acq("a", 0), rel("a", 0), acq("b", 1), rel("b", 1), acq("c", 2), rel("c", 2)},
			admitAt: 9,
		},
		{
			name: "oldest-idle-expired", capacity: 3,
			steps:   []step{acq("a", 0), rel("a", 0), acq("b", 1), rel("b", 1), acq("c", 2), rel("c", 2)},
			admitAt: 10, want: "a",
		},
		{
			// Acquire moves a session to the newest end, so b becomes the
			// least recently acquired entry.
			name: "reacquire-relinks", capacity: 2,
			steps:   []step{acq("a", 0), rel("a", 0), acq("b", 1), rel("b", 1), acq("a", 2), rel("a", 2)},
			admitAt: 15, want: "b",
		},
		{
			name: "all-held-rejects", capacity: 2,
			steps:   []step{acq("a", 0), acq("b", 1)},
			admitAt: 100,
		},
		{
			// Overlapping holds, the one case where order by last Acquire
			// differs from order by last Release: a is acquired before b, b
			// is released first, and at 12 s only b has expired. The oldest
			// idle entry is a, still live, so admission is refused, where
			// the smallest-last-release rule would have reclaimed b.
			name: "overlapping-holds-rejects", capacity: 2,
			steps:   []step{acq("a", 0), acq("b", 1), rel("b", 2), rel("a", 9)},
			admitAt: 12,
		},
		{
			// The delay is bounded by a's hold (9 s): a expires at 19 s, 7 s
			// after b did, and is reclaimed then.
			name: "overlapping-holds-bounded", capacity: 2,
			steps:   []step{acq("a", 0), acq("b", 1), rel("b", 2), rel("a", 9)},
			admitAt: 19, want: "a",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New[int64](Config{MaxSessions: tc.capacity, TTLNanos: 10 * second, Shards: 1})
			sh := &tb.shards[0]
			held := map[string]*Session[int64]{}
			var order []string // expected recency list, least recently acquired first
			for i, st := range tc.steps {
				if st.acquire {
					held[st.key] = mustAcquire(t, tb, st.key, st.at*second)
					order = append(slices.DeleteFunc(order, func(k string) bool { return k == st.key }), st.key)
				} else {
					tb.Release(held[st.key], st.at*second)
				}
				if got := listedKeys(t, sh); !slices.Equal(got, order) {
					t.Fatalf("step %d: list %v, want %v", i, got, order)
				}
				checkLists(t, tb)
			}
			s, err := tb.Acquire("new", tc.admitAt*second, nil)
			switch {
			case tc.want == "" && !errors.Is(err, ErrCapacity):
				t.Fatalf("Acquire = %v, want ErrCapacity", err)
			case tc.want != "" && err != nil:
				t.Fatalf("Acquire = %v, want reclaim of %q", err, tc.want)
			case tc.want != "":
				order = append(slices.DeleteFunc(order, func(k string) bool { return k == tc.want }), "new")
			}
			if got := listedKeys(t, sh); !slices.Equal(got, order) {
				t.Fatalf("after admission: list %v, want %v", got, order)
			}
			if st := tb.Stats(); (tc.want != "") != (st.EvictedIdle == 1) || st.EvictedIdle > 1 {
				t.Fatalf("admission evicted %d entries, want reclaim of %q", st.EvictedIdle, tc.want)
			}
			if s != nil {
				tb.Release(s, tc.admitAt*second)
			}
			checkLists(t, tb)
		})
	}
}

// TestListTracksMap: every path that removes an entry — the idle sweep and
// the in-line reclaim — leaves each shard's list and map holding the same
// entries.
func TestListTracksMap(t *testing.T) {
	const ttl = 100 * second
	tb := New[int64](Config{MaxSessions: 8, TTLNanos: ttl, Shards: 2})
	// Admit one key per second until both 4-entry shards are full; a key
	// whose shard is already full is refused (nothing has expired yet).
	last := int64(0)
	for i := int64(0); tb.Len() < 8; i++ {
		s, err := tb.Acquire(fmt.Sprintf("k%d", i), i*second, nil)
		if errors.Is(err, ErrCapacity) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tb.Release(s, i*second)
		last = i * second
	}
	checkLists(t, tb)

	// A partial sweep: k0 (released at 0) expires, the last admission does not.
	now := last/2 + ttl
	if n := tb.Sweep(now); n == 0 || n == 8 {
		t.Fatalf("sweep evicted %d of 8, want a partial sweep", n)
	}
	checkLists(t, tb)

	// Refill, then admit fresh keys one TTL apart: every entry has expired
	// by the next admission, so each admission into a full shard reclaims
	// one entry and inserts the new one, the table stays full, and each
	// admission counts one eviction.
	for i := 100; tb.Len() < 8; i++ {
		if s, err := tb.Acquire(fmt.Sprintf("k%d", i), now, nil); err == nil {
			tb.Release(s, now)
		}
	}
	evicted := tb.Stats().EvictedIdle
	for i := 1; i <= 32; i++ {
		at := now + int64(i)*ttl
		s, err := tb.Acquire(fmt.Sprintf("fresh%d", i), at, nil)
		if err != nil {
			t.Fatalf("Acquire into a full, expired shard = %v, want a reclaim", err)
		}
		tb.Release(s, at)
		checkLists(t, tb)
	}
	if st := tb.Stats(); st.Active != 8 || st.EvictedIdle != evicted+32 {
		t.Fatalf("stats %+v after reclaiming admissions, want 8 active and 32 more evictions", st)
	}
}

// TestConcurrentChurnAtCapacity drives a full table from several goroutines
// — honest sessions re-acquired over and over, fresh keys forcing reclaims —
// while a sweeper runs alongside, then checks the lifecycle invariants:
// nothing held was evicted (while a worker holds a session, its shard still
// maps the key to it), the counters balance, each shard's list matches its
// map, and the table holds only keys the workers acquired. Run it under
// -race with a high -count.
func TestConcurrentChurnAtCapacity(t *testing.T) {
	const (
		workers = 4
		ops     = 3000
		ttl     = 64 // nanoseconds of the shared injected clock
	)
	var clock, heldEvictions atomic.Int64
	var keys sync.Map // every key a worker acquired
	tb := New[int64](Config{MaxSessions: 32, TTLNanos: ttl, Shards: 4})
	var wg sync.WaitGroup
	done := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-done:
				return
			default:
				tb.Sweep(clock.Load())
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-honest-%d", w, i%4)
				if i%3 == 0 {
					key = fmt.Sprintf("w%d-fresh-%d", w, i)
				}
				s, err := tb.Acquire(key, clock.Add(1), nil)
				if errors.Is(err, ErrCapacity) {
					continue
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				keys.Store(key, true)
				s.Mu.Lock()
				s.Value = int64(i)
				sh := tb.shardFor(key)
				sh.mu.Lock()
				if sh.entries[key] != s {
					heldEvictions.Add(1)
				}
				sh.mu.Unlock()
				s.Mu.Unlock()
				tb.Release(s, clock.Add(1))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	sweeps.Wait()

	if n := heldEvictions.Load(); n != 0 {
		t.Errorf("%d held sessions evicted", n)
	}
	if st := tb.Stats(); st.EvictedIdle == 0 {
		t.Error("the run evicted nothing: it exercised no reclaim")
	}
	checkLists(t, tb)
	for i := range tb.shards {
		for _, key := range listedKeys(t, &tb.shards[i]) {
			if _, ok := keys.Load(key); !ok {
				t.Errorf("shard %d holds %q, which no worker acquired", i, key)
			}
		}
	}
}
