package arena

import (
	"sync"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/units"
	"repro/internal/video"
)

// decideOnce drives one fixed decision through a slot's controller, proving
// the slot is usable end to end.
func decideOnce(t *testing.T, c *core.Controller, ladder video.Ladder) int {
	t.Helper()
	omega := units.Mbps(8)
	ctx := &abr.Context{
		Buffer:    units.Seconds(10),
		BufferCap: units.Seconds(20),
		PrevRung:  abr.NoRung,
		Ladder:    ladder,
		Predict:   func(units.Seconds) units.Mbps { return omega },
	}
	return c.Decide(ctx).Rung
}

func TestGrowthAcrossSlabs(t *testing.T) {
	a := New(1, 0)
	const n = slabSize + slabSize/2 // force a second slab
	states := make([]*State, n)
	for i := range states {
		_, st, _, ok := a.Alloc(0)
		if !ok {
			t.Fatalf("Alloc %d failed", i)
		}
		if *st != (State{}) {
			t.Fatalf("slot %d is not zero: %+v", i, *st)
		}
		st.Segment = int32(i)
		states[i] = st
	}
	st := a.Stats()
	if st.Slabs != 2 {
		t.Fatalf("slabs = %d after %d allocs, want 2: %s", st.Slabs, n, st)
	}
	if st.HighWater != n {
		t.Fatalf("high water = %d, want %d: %s", st.HighWater, n, st)
	}
	// Growth must not have moved or overwritten earlier slots.
	for i, s := range states {
		if s.Segment != int32(i) {
			t.Fatalf("slot %d: segment=%d, want %d", i, s.Segment, i)
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	a := New(2, 3)
	for i := 0; i < 3; i++ {
		if _, _, _, ok := a.Alloc(0); !ok {
			t.Fatalf("Alloc %d failed below the cap", i)
		}
	}
	if _, _, _, ok := a.Alloc(0); ok {
		t.Fatal("Alloc succeeded past the per-shard cap")
	}
	// A full shard leaves the other one open.
	if _, _, _, ok := a.Alloc(1); !ok {
		t.Fatal("Alloc on the open shard failed")
	}
	if _, _, _, ok := a.Alloc(-1); ok {
		t.Fatal("Alloc accepted a negative shard")
	}
	if _, _, _, ok := a.Alloc(2); ok {
		t.Fatal("Alloc accepted an out-of-range shard")
	}
	if st := a.Stats(); st.HighWater != 4 {
		t.Fatalf("high water = %d, want 4: %s", st.HighWater, st)
	}
}

// TestWatchLifecycle covers the per-slot QoE-watchdog state: a slot's watch
// is usable detector state, and every slot starts with zeroed state — proven
// behaviourally via the watchdog's started-latch (a fresh watch must not flag
// a stall before the buffer has ever been positive).
func TestWatchLifecycle(t *testing.T) {
	a := New(1, 0)
	wd := flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	_, _, watch, ok := a.Alloc(0)
	if !ok || watch == nil {
		t.Fatalf("fresh slot watch = %v/%v, want non-nil/true", watch, ok)
	}
	// Latch playback start (buffer > 0), then stall: exactly one incident.
	wd.Observe(watch, 1, units.Seconds(1), units.Seconds(10), 0, 0)
	wd.Observe(watch, 1, units.Seconds(2), units.Seconds(0), 0, 0)
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("stall incidents after started+empty = %d, want 1", got)
	}
	// The next slot does not share the first one's detector state: with the
	// started-latch zeroed, an empty buffer on the very first observation is
	// the fill phase, not a stall.
	_, _, watch2, _ := a.Alloc(0)
	if watch2 == watch {
		t.Fatal("two slots share one watch")
	}
	wd.Observe(watch2, 2, units.Seconds(1), units.Seconds(0), 0, 0)
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("second slot inherited started-latch: stall incidents = %d, want still 1", got)
	}
}

// TestConcurrentChurn allocates and decides from several goroutines, each on
// its own shard plus a shared one; run under -race this proves Alloc and the
// shard growth it performs are correctly synchronised.
func TestConcurrentChurn(t *testing.T) {
	const workers, rounds = 4, 200
	a := New(workers+1, 0)
	ladder := video.Mobile()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Own shard: exclusive allocation.
				ctrl, st, _, ok := a.Alloc(w)
				if !ok {
					t.Errorf("worker %d: Alloc failed", w)
					return
				}
				ctrl.Init(core.DefaultConfig(), ladder)
				st.Buffer = units.Seconds(float64(i))
				decideOnce(t, ctrl, ladder)
				// Shared shard: contended allocation only.
				if _, st, _, ok := a.Alloc(workers); ok {
					st.Segment = int32(w)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := a.Stats(); st.HighWater != 2*workers*rounds {
		t.Fatalf("high water = %d after %d allocs: %s", st.HighWater, 2*workers*rounds, st)
	}
}

func TestStatsString(t *testing.T) {
	a := New(1, 0)
	a.Alloc(0)
	if s := a.Stats().String(); s == "" {
		t.Fatal("empty Stats string")
	}
}

func TestNewClampsArguments(t *testing.T) {
	a := New(0, -5)
	if got := a.Stats().Shards; got != 1 {
		t.Fatalf("New(0) shards = %d, want 1", got)
	}
	if got := a.shards[0].cap; got != shardCapacity {
		t.Fatalf("New(_, -5) shard capacity = %d, want %d", got, shardCapacity)
	}
	if got := New(2, shardCapacity+1).shards[1].cap; got != shardCapacity {
		t.Fatalf("oversized capacity clamped to %d, want %d", got, shardCapacity)
	}
}
