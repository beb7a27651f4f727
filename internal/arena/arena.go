// Package arena names the per-session player state that sim.Player steps
// and the fleet simulator and the load generator keep in flat slices, and
// the fleet's occupancy report.
//
// Each fleet worker owns its sessions as contiguous slices sized once at
// construction — controllers, player states and, with a watchdog attached,
// detector states — so one session's hot state is a handful of adjacent
// cache lines and the event path indexes a slice with no pointer chase.
// Nothing is allocated or freed per session after setup.
package arena

import (
	"fmt"

	"repro/internal/units"
)

// State is one session's player dynamics — the per-decision mutable block,
// kept to 64 bytes so a decision touches one cache line of dynamics.
// sim.Player owns the playback fields; the fleet's time-wheel owns DueTick
// and Next.
type State struct {
	// Buffer and Stall are the playback buffer and the cumulative rebuffer
	// time charged to this session (start-up is never charged as stall).
	Buffer units.Seconds
	Stall  units.Seconds
	// Deadline is always 0: nothing writes it. It stays because the
	// benchmark's fleet twin check compares it.
	Deadline units.Seconds
	// Clock is the session's stream clock, 0 at its first decision.
	Clock units.Seconds
	// Trace, Cursor and Base are the session's position in its trace: Trace
	// indexes the shared trace pool (0 for a single-trace session), Cursor
	// is the sample holding the last time located and Base the stream time
	// at which that sample began. The session enters its trace at sample
	// Cursor with Base 0, and both only move forward.
	Trace  int32
	Cursor int32
	Base   units.Seconds
	// PrevRung and Segment are the controller-visible session history: the
	// last rung downloaded and the number of segments downloaded.
	PrevRung int32
	Segment  int32
	// DueTick and Next are owned by the fleet time-wheel: the absolute due
	// tick of the scheduled event and the intrusive bucket-chain link.
	DueTick uint32
	Next    uint32
}

// Stats describes where a fleet's sessions live.
type Stats struct {
	// Shards is the worker count.
	Shards int
	// Slabs counts contiguous session blocks: one per worker.
	Slabs int
	// HighWater is the number of sessions seated.
	HighWater int
}

// String renders the snapshot for test failures and debug logs.
func (s Stats) String() string {
	return fmt.Sprintf("arena: shards=%d slabs=%d highwater=%d", s.Shards, s.Slabs, s.HighWater)
}
