package sessiontable

import (
	"errors"
	"fmt"
	"testing"
)

// modelEntry is one live session of FuzzSessionTable's reference model.
type modelEntry struct {
	key     string
	sess    *Session
	refs    int
	lastUse int64
}

// FuzzSessionTable runs arbitrary sequences of Acquire, Release and Sweep on
// an injected clock — session keys arrive from the network — against a
// reference model that keeps each shard's sessions in a plain slice ordered
// by last Acquire. After every step: no held or unexpired session was ever
// evicted, OnEvict ran exactly once per eviction, Created equals EvictedIdle
// plus Active, every shard's list matches its map and the model's order, and
// an admission into a full shard evicted exactly the model's least recently
// acquired idle entry when that entry had expired, and otherwise was refused.
//
// Input layout: capacity, shard count and TTL from the first three bytes,
// then 3-byte steps (op, key, clock advance).
func FuzzSessionTable(f *testing.F) {
	f.Add([]byte{3, 0, 5, 0, 0, 1, 0, 1, 1, 0, 2, 1, 2, 0, 1, 2, 1, 1, 0, 3, 9, 3, 0, 0})
	f.Add([]byte{1, 0, 2, 0, 0, 0, 0, 1, 1, 2, 0, 3, 0, 1, 0, 128, 2, 3, 0, 2, 0})
	f.Add([]byte{7, 2, 9, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 3,
		2, 0, 1, 2, 1, 1, 2, 2, 1, 3, 0, 3, 0, 8, 2, 128, 9, 3, 2, 3, 1, 0, 10, 0, 0, 11, 3})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 3, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		capacity := 1 + int(data[0]%8)
		ttl := int64(data[2] % 16) // 0 disables reclaim and sweep
		now := int64(0)
		evictions := map[*Session]int{}
		var evictOrder []*Session
		tb := New(Config{MaxSessions: capacity, Shards: 1 << (data[1] % 3), TTLNanos: ttl,
			OnEvict: func(s *Session) {
				if s.refs.Load() != 0 {
					t.Fatalf("evicted %q with %d holders", s.key, s.refs.Load())
				}
				if now-s.lastUse.Load() < ttl {
					t.Fatalf("evicted %q idle %d ns, TTL %d", s.key, now-s.lastUse.Load(), ttl)
				}
				evictions[s]++
				evictOrder = append(evictOrder, s)
			}})
		model := map[*tableShard][]*modelEntry{} // least recently acquired first
		byKey := map[string]*modelEntry{}
		rejected := uint64(0)
		boom := errors.New("create failed")

		drop := func(sh *tableShard, e *modelEntry) {
			order := model[sh]
			for i, o := range order {
				if o == e {
					model[sh] = append(order[:i:i], order[i+1:]...)
					break
				}
			}
			delete(byKey, e.key)
		}

		for step, in := 0, data[3:]; len(in) >= 3; step, in = step+1, in[3:] {
			op, key := in[0], fmt.Sprintf("k%d", in[1]%12)
			now += int64(in[2] % 4)
			evictOrder = evictOrder[:0]
			sh := tb.shardFor(key)
			switch op % 4 {
			case 0, 1: // Acquire; the top bit makes a creation's callback fail
				if e := byKey[key]; e != nil {
					s, err := tb.Acquire(key, now, nil)
					if err != nil || s != e.sess {
						t.Fatalf("step %d: Acquire(live %q) = %v, %v", step, key, s, err)
					}
					e.refs++
					drop(sh, e)
					byKey[key] = e
					model[sh] = append(model[sh], e)
					break
				}
				var victim *modelEntry
				full := len(model[sh]) >= tb.perShard
				if full && ttl > 0 {
					for _, e := range model[sh] {
						if e.refs == 0 {
							if now-e.lastUse >= ttl {
								victim = e
							}
							break
						}
					}
				}
				fail := op&0x80 != 0
				s, err := tb.Acquire(key, now, func(*Session) error {
					if fail {
						return boom
					}
					return nil
				})
				if victim != nil {
					if len(evictOrder) != 1 || evictOrder[0] != victim.sess {
						t.Fatalf("step %d: reclaim evicted %d sessions, want exactly %q", step, len(evictOrder), victim.key)
					}
					drop(sh, victim)
				} else if len(evictOrder) != 0 {
					t.Fatalf("step %d: admission evicted %d sessions, model evicts none", step, len(evictOrder))
				}
				switch {
				case full && victim == nil:
					if !errors.Is(err, ErrCapacity) {
						t.Fatalf("step %d: admission into a full shard with no expired oldest idle entry = %v", step, err)
					}
					rejected++
				case fail:
					if !errors.Is(err, boom) {
						t.Fatalf("step %d: Acquire with failing create = %v", step, err)
					}
					rejected++
				case err != nil:
					t.Fatalf("step %d: Acquire(%q) = %v", step, key, err)
				default:
					e := &modelEntry{key: key, sess: s, refs: 1, lastUse: now}
					byKey[key] = e
					model[sh] = append(model[sh], e)
				}
			case 2: // Release one hold, if the key has any
				if e := byKey[key]; e != nil && e.refs > 0 {
					tb.Release(e.sess, now)
					e.refs--
					e.lastUse = now
				}
			case 3: // Sweep: every idle expired entry, shard by shard, oldest first
				var want []*modelEntry
				for i := range tb.shards {
					for _, e := range model[&tb.shards[i]] {
						if ttl > 0 && e.refs == 0 && now-e.lastUse >= ttl {
							want = append(want, e)
						}
					}
				}
				if n := tb.Sweep(now); n != len(want) || len(evictOrder) != len(want) {
					t.Fatalf("step %d: Sweep evicted %d (hook saw %d), model %d", step, n, len(evictOrder), len(want))
				}
				for i, e := range want {
					if evictOrder[i] != e.sess {
						t.Fatalf("step %d: sweep eviction %d is %q, model %q", step, i, evictOrder[i].key, e.key)
					}
					drop(tb.shardFor(e.key), e)
				}
			}

			for s, n := range evictions {
				if n != 1 {
					t.Fatalf("step %d: OnEvict ran %d times for %q", step, n, s.key)
				}
			}
			st := tb.Stats()
			if st.Created != st.EvictedIdle+uint64(st.Active) || st.Active != len(byKey) ||
				int(st.EvictedIdle) != len(evictions) || st.RejectedCapacity != rejected {
				t.Fatalf("step %d: stats %+v, model %d live, %d evicted, %d rejected",
					step, st, len(byKey), len(evictions), rejected)
			}
			for i := range tb.shards {
				sh := &tb.shards[i]
				list, err := listed(sh)
				if err != nil {
					t.Fatalf("step %d: shard %d: %v", step, i, err)
				}
				order := model[sh]
				if len(list) != len(order) {
					t.Fatalf("step %d: shard %d lists %d entries, model %d", step, i, len(list), len(order))
				}
				for j, e := range order {
					if list[j] != e.sess {
						t.Fatalf("step %d: shard %d position %d holds %q, model %q", step, i, j, list[j].key, e.key)
					}
				}
			}
		}
	})
}
