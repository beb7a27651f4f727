package sessiontable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// checkLists walks every shard's recency list against its map (see listed)
// and checks that the shards together hold Len() sessions.
func checkLists(t testing.TB, tb *Table) {
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
}

// listed returns a shard's recency list, oldest first, and an error unless
// the list is linked consistently in both directions and holds exactly the
// map's entries.
func listed(sh *tableShard) ([]*Session, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var list []*Session
	var prev *Session
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
// Times are in seconds of the injected clock; the TTL is 10 s.
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
			var evicted []string
			tb := New(Config{MaxSessions: tc.capacity, TTLNanos: 10 * second, Shards: 1,
				OnEvict: func(s *Session) { evicted = append(evicted, s.Key()) }})
			held := map[string]*Session{}
			for _, st := range tc.steps {
				if st.acquire {
					held[st.key] = mustAcquire(t, tb, st.key, st.at*second)
				} else {
					tb.Release(held[st.key], st.at*second)
				}
			}
			s, err := tb.Acquire("new", tc.admitAt*second, nil)
			switch {
			case tc.want == "" && !errors.Is(err, ErrCapacity):
				t.Fatalf("Acquire = %v, want ErrCapacity", err)
			case tc.want == "" && len(evicted) != 0:
				t.Fatalf("rejected admission evicted %v", evicted)
			case tc.want != "" && err != nil:
				t.Fatalf("Acquire = %v, want reclaim of %q", err, tc.want)
			case tc.want != "" && (len(evicted) != 1 || evicted[0] != tc.want):
				t.Fatalf("reclaimed %v, want [%s]", evicted, tc.want)
			}
			if s != nil {
				tb.Release(s, tc.admitAt*second)
			}
			checkLists(t, tb)
		})
	}
}

// TestListTracksMap: every path that removes an entry — the idle sweep, an
// in-line reclaim followed by a failing create callback — leaves each
// shard's list and map holding the same entries.
func TestListTracksMap(t *testing.T) {
	const ttl = 100 * second
	tb := New(Config{MaxSessions: 8, TTLNanos: ttl, Shards: 2})
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

	// Refill, let everything expire, then admit with a failing create: the
	// first failed admission into each full shard reclaims one entry and
	// inserts nothing; later ones find room and reclaim nothing.
	for i := 100; tb.Len() < 8; i++ {
		if s, err := tb.Acquire(fmt.Sprintf("k%d", i), now, nil); err == nil {
			tb.Release(s, now)
		}
	}
	evicted := tb.Stats().EvictedIdle
	boom := errors.New("no slots")
	for i := 200; i < 232; i++ {
		if _, err := tb.Acquire(fmt.Sprintf("k%d", i), now+ttl, func(*Session) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("Acquire with failing create = %v, want the create error", err)
		}
		checkLists(t, tb)
	}
	st := tb.Stats()
	if st.Active != 6 || st.EvictedIdle != evicted+2 {
		t.Fatalf("stats %+v after failed admissions, want 6 active and 2 more evictions (one per shard)", st)
	}
	if st.Created != st.EvictedIdle+uint64(st.Active) {
		t.Fatalf("stats %+v: created != evicted + active", st)
	}
}

// TestConcurrentChurnAtCapacity drives a full table from several goroutines
// — honest sessions re-acquired over and over, fresh keys forcing reclaims —
// while a sweeper runs alongside, then checks the lifecycle invariants:
// nothing held was evicted, every eviction ran the hook once, the counters
// balance, and each shard's list matches its map. Run it under -race with a
// high -count.
func TestConcurrentChurnAtCapacity(t *testing.T) {
	const (
		workers = 4
		ops     = 3000
		ttl     = 64 // nanoseconds of the shared injected clock
	)
	var clock, hooked atomic.Int64
	var heldEvictions atomic.Int64
	tb := New(Config{MaxSessions: 32, TTLNanos: ttl, Shards: 4, OnEvict: func(s *Session) {
		hooked.Add(1)
		if s.refs.Load() != 0 {
			heldEvictions.Add(1)
		}
	}})
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
				s.Mu.Lock()
				s.Value = i
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
	st := tb.Stats()
	if uint64(hooked.Load()) != st.EvictedIdle {
		t.Errorf("OnEvict ran %d times for %d evictions", hooked.Load(), st.EvictedIdle)
	}
	if st.Created != st.EvictedIdle+uint64(st.Active) {
		t.Errorf("created %d != evicted %d + active %d", st.Created, st.EvictedIdle, st.Active)
	}
	if st.EvictedIdle == 0 {
		t.Error("the run evicted nothing: it exercised no reclaim")
	}
	checkLists(t, tb)
}
