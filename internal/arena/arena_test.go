package arena

import (
	"sync"
	"testing"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
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

func TestHandleEncoding(t *testing.T) {
	h := makeHandle(37, 0x00abcdef, 0xdeadbeef)
	if h.Shard() != 37 {
		t.Fatalf("shard = %d, want 37", h.Shard())
	}
	if h.Generation() != 0x00abcdef {
		t.Fatalf("generation = %#x, want 0xabcdef", h.Generation())
	}
	if h.Index() != 0xdeadbeef {
		t.Fatalf("index = %#x, want 0xdeadbeef", h.Index())
	}
	// Generations wrap at 24 bits inside the handle.
	if g := makeHandle(0, 1<<genBits|5, 0).Generation(); g != 5 {
		t.Fatalf("wrapped generation = %d, want 5", g)
	}
}

func TestAllocFreeReuse(t *testing.T) {
	a := New(2, 0)
	h1, ok := a.Alloc(0)
	if !ok {
		t.Fatal("Alloc failed on an empty shard")
	}
	if h1.Generation()%2 != 1 {
		t.Fatalf("live handle has even generation %d", h1.Generation())
	}
	ctrl, st, ok := a.Session(h1)
	if !ok || ctrl == nil || st == nil {
		t.Fatal("Session failed on a live handle")
	}
	st.Buffer = 7
	if !a.Free(h1) {
		t.Fatal("Free rejected a live handle")
	}
	if a.Len() != 0 {
		t.Fatalf("Len = %d after free, want 0", a.Len())
	}

	// The free list hands the same slot back with a bumped generation.
	h2, ok := a.Alloc(0)
	if !ok {
		t.Fatal("Alloc failed after a free")
	}
	if h2.Index() != h1.Index() || h2.Shard() != h1.Shard() {
		t.Fatalf("recycled alloc landed on slot %d/%d, want %d/%d",
			h2.Shard(), h2.Index(), h1.Shard(), h1.Index())
	}
	if h2.Generation() != h1.Generation()+2 {
		t.Fatalf("recycled generation = %d, want %d", h2.Generation(), h1.Generation()+2)
	}
	if st := a.Stats(); st.HighWater != 1 {
		t.Fatalf("high water = %d after recycling one slot, want 1: %s", st.HighWater, st)
	}
}

func TestStaleHandleRejected(t *testing.T) {
	a := New(1, 0)
	h, _ := a.Alloc(0)
	a.Free(h)
	if _, _, ok := a.Session(h); ok {
		t.Fatal("Session honoured a freed handle")
	}
	if _, ok := a.State(h); ok {
		t.Fatal("State honoured a freed handle")
	}
	if _, ok := a.Ctrl(h); ok {
		t.Fatal("Ctrl honoured a freed handle")
	}
	if a.Free(h) {
		t.Fatal("double Free succeeded")
	}
	if st := a.Stats(); st.StaleFrees != 1 {
		t.Fatalf("stale-free count = %d, want 1", st.StaleFrees)
	}

	// ABA: after the slot is recycled, the old handle must still fail even
	// though the slot is live again.
	h2, _ := a.Alloc(0)
	if h2.Index() != h.Index() {
		t.Fatalf("recycle landed on %d, want %d", h2.Index(), h.Index())
	}
	if _, _, ok := a.Session(h); ok {
		t.Fatal("pre-recycle handle aliased the slot's next tenant (ABA)")
	}
	if _, _, ok := a.Session(h2); !ok {
		t.Fatal("fresh handle to the recycled slot failed")
	}
}

func TestMalformedHandles(t *testing.T) {
	a := New(1, 0)
	if _, _, ok := a.Session(makeHandle(3, 1, 0)); ok {
		t.Fatal("Session honoured an out-of-range shard")
	}
	if _, _, ok := a.Session(makeHandle(0, 1, shardCapacity+1)); ok {
		t.Fatal("Session honoured an out-of-range index")
	}
	// An index inside an uncommitted slab resolves to a nil slab pointer.
	if _, _, ok := a.Session(makeHandle(0, 1, slabSize*8)); ok {
		t.Fatal("Session honoured an index in an uncommitted slab")
	}
	if _, ok := a.State(makeHandle(3, 1, 0)); ok {
		t.Fatal("State honoured an out-of-range shard")
	}
	if _, ok := a.Ctrl(makeHandle(0, 1, slabSize*8)); ok {
		t.Fatal("Ctrl honoured an index in an uncommitted slab")
	}
	if a.Free(makeHandle(3, 1, 0)) || a.Free(makeHandle(0, 1, slabSize*8)) {
		t.Fatal("Free honoured a malformed handle")
	}
	if _, ok := a.Alloc(-1); ok {
		t.Fatal("Alloc accepted a negative shard")
	}
	if _, ok := a.Alloc(1); ok {
		t.Fatal("Alloc accepted an out-of-range shard")
	}
	if a.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", a.Shards())
	}
}

func TestGrowthAcrossSlabs(t *testing.T) {
	a := New(1, 0)
	const n = slabSize + slabSize/2 // force a second slab
	handles := make([]Handle, n)
	for i := range handles {
		h, ok := a.Alloc(0)
		if !ok {
			t.Fatalf("Alloc %d failed", i)
		}
		handles[i] = h
		st, ok := a.State(h)
		if !ok {
			t.Fatalf("State failed for slot %d", i)
		}
		st.Segment = int32(i)
	}
	st := a.Stats()
	if st.Slabs != 2 {
		t.Fatalf("slabs = %d after %d allocs, want 2: %s", st.Slabs, n, st)
	}
	if st.Live != n {
		t.Fatalf("live = %d, want %d: %s", st.Live, n, st)
	}
	// Growth must not have invalidated or moved earlier slots.
	for i, h := range handles {
		s, ok := a.State(h)
		if !ok || s.Segment != int32(i) {
			t.Fatalf("slot %d: ok=%v segment=%d, want %d", i, ok, s.Segment, i)
		}
	}
}

func TestCapacityExhaustion(t *testing.T) {
	a := New(2, 3)
	for i := 0; i < 3; i++ {
		if _, ok := a.Alloc(0); !ok {
			t.Fatalf("Alloc %d failed below the cap", i)
		}
	}
	if _, ok := a.Alloc(0); ok {
		t.Fatal("Alloc succeeded past the per-shard cap")
	}
	// AllocAny falls over to the other shard, then fails once both are full.
	for i := 0; i < 3; i++ {
		if _, ok := a.AllocAny(); !ok {
			t.Fatalf("AllocAny %d failed with shard 1 open", i)
		}
	}
	if _, ok := a.AllocAny(); ok {
		t.Fatal("AllocAny succeeded with every shard full")
	}
	if got := a.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
}

func TestRecycledSlotDecidesBitIdentically(t *testing.T) {
	ladder := video.Mobile()
	a := New(1, 0)
	h1, _ := a.Alloc(0)
	ctrl, _, _ := a.Session(h1)
	ctrl.Init(core.DefaultConfig(), ladder)
	want := decideOnce(t, ctrl, ladder)

	fresh := core.New(core.DefaultConfig(), ladder)
	if got := decideOnce(t, fresh, ladder); got != want {
		t.Fatalf("arena controller decided %d, heap controller %d", want, got)
	}

	// Dirty the slot, free it, re-claim it, and require the recycled
	// controller to match a fresh heap controller exactly.
	for i := 0; i < 5; i++ {
		decideOnce(t, ctrl, ladder)
	}
	a.Free(h1)
	h2, _ := a.Alloc(0)
	if h2.Index() != h1.Index() {
		t.Fatalf("recycle landed on %d, want %d", h2.Index(), h1.Index())
	}
	ctrl2, _, _ := a.Session(h2)
	ctrl2.Init(core.DefaultConfig(), ladder)
	if got := decideOnce(t, ctrl2, ladder); got != want {
		t.Fatalf("recycled controller decided %d, fresh %d", got, want)
	}
}

func TestRecorderLifecycle(t *testing.T) {
	a := New(1, 0)
	col := telemetry.NewCollector(nil, 16)
	h, _ := a.Alloc(0)
	if rec, ok := a.Recorder(h); !ok || rec != nil {
		t.Fatalf("fresh slot recorder = %v/%v, want nil/true", rec, ok)
	}
	rec := col.StartSession(1)
	if !a.SetRecorder(h, rec) {
		t.Fatal("SetRecorder rejected a live handle")
	}
	if got, ok := a.Recorder(h); !ok || got != rec {
		t.Fatal("Recorder did not return the bound recorder")
	}
	a.Free(h)
	if _, ok := a.Recorder(h); ok {
		t.Fatal("Recorder honoured a freed handle")
	}
	if a.SetRecorder(h, rec) {
		t.Fatal("SetRecorder honoured a freed handle")
	}
	if a.SetRecorder(makeHandle(5, 1, 0), rec) || a.SetRecorder(makeHandle(0, 1, slabSize*9), rec) {
		t.Fatal("SetRecorder honoured a malformed handle")
	}
	if _, ok := a.Recorder(makeHandle(5, 1, 0)); ok {
		t.Fatal("Recorder honoured an out-of-range shard")
	}
	if _, ok := a.Recorder(makeHandle(0, 1, slabSize*9)); ok {
		t.Fatal("Recorder honoured an uncommitted slab")
	}
	// The recycled slot must not inherit the previous tenant's recorder.
	h2, _ := a.Alloc(0)
	if got, ok := a.Recorder(h2); !ok || got != nil {
		t.Fatalf("recycled slot recorder = %v/%v, want nil/true", got, ok)
	}
}

// TestWatchLifecycle covers the per-slot QoE-watchdog state: a live handle
// resolves to usable detector state, a freed or malformed handle does not,
// and a recycled slot starts with ZEROED state — proven behaviourally via
// the watchdog's started-latch (a fresh watch must not flag a stall before
// the buffer has ever been positive).
func TestWatchLifecycle(t *testing.T) {
	a := New(1, 0)
	wd := flightrec.NewWatchdog(nil, flightrec.WatchdogConfig{})
	h, _ := a.Alloc(0)
	watch, ok := a.Watch(h)
	if !ok || watch == nil {
		t.Fatalf("fresh slot watch = %v/%v, want non-nil/true", watch, ok)
	}
	// Latch playback start (buffer > 0), then stall: exactly one incident.
	wd.Observe(watch, 1, units.Seconds(1), units.Seconds(10), 0, 0)
	wd.Observe(watch, 1, units.Seconds(2), units.Seconds(0), 0, 0)
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("stall incidents after started+empty = %d, want 1", got)
	}
	a.Free(h)
	if _, ok := a.Watch(h); ok {
		t.Fatal("Watch honoured a freed handle")
	}
	if _, ok := a.Watch(makeHandle(5, 1, 0)); ok {
		t.Fatal("Watch honoured an out-of-range shard")
	}
	if _, ok := a.Watch(makeHandle(0, 1, slabSize*9)); ok {
		t.Fatal("Watch honoured an uncommitted slab")
	}
	// The recycled slot must not inherit the previous tenant's detector
	// state: with the started-latch zeroed, an empty buffer on the very
	// first observation is the fill phase, not a stall.
	h2, _ := a.Alloc(0)
	watch2, ok := a.Watch(h2)
	if !ok {
		t.Fatal("Watch rejected the recycled handle")
	}
	wd.Observe(watch2, 2, units.Seconds(1), units.Seconds(0), 0, 0)
	if got := wd.Count(flightrec.KindStall); got != 1 {
		t.Fatalf("recycled slot inherited started-latch: stall incidents = %d, want still 1", got)
	}
}

// TestConcurrentChurn hammers alloc/decide/free from several goroutines on
// distinct shards plus a shared one; run under -race this proves the
// generation counters and free lists are correctly synchronised.
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
				// Own shard: exclusive churn.
				h, ok := a.Alloc(w)
				if !ok {
					t.Errorf("worker %d: Alloc failed", w)
					return
				}
				ctrl, st, ok := a.Session(h)
				if !ok {
					t.Errorf("worker %d: Session failed", w)
					return
				}
				ctrl.Init(core.DefaultConfig(), ladder)
				st.Buffer = units.Seconds(float64(i))
				decideOnce(t, ctrl, ladder)
				a.Free(h)
				// Shared shard: contended alloc/free only.
				if h, ok := a.Alloc(workers); ok {
					a.Free(h)
				}
			}
		}(w)
	}
	wg.Wait()
	if a.Len() != 0 {
		t.Fatalf("Len = %d after balanced churn, want 0: %s", a.Len(), a.Stats())
	}
	st := a.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d: %s", st.Allocs, st.Frees, st)
	}
}

func TestStatsString(t *testing.T) {
	a := New(1, 0)
	h, _ := a.Alloc(0)
	if s := a.Stats().String(); s == "" {
		t.Fatal("empty Stats string")
	}
	a.Free(h)
}

func TestNewClampsArguments(t *testing.T) {
	if got := New(0, -5).Shards(); got != 1 {
		t.Fatalf("New(0) shards = %d, want 1", got)
	}
	if got := New(1<<10, 0).Shards(); got != MaxShards {
		t.Fatalf("New(1<<10) shards = %d, want %d", got, MaxShards)
	}
}
