package telemetry

import (
	"sync"

	"repro/internal/units"
)

// DecisionEvent is one Decide call as recorded by a harness after the
// controller returned — the unit of the /debug/decisions trace and the JSONL
// export. Field names carry their unit (the typed-wire-schema convention);
// the values themselves are the repository's units.* scalars, which encode
// as plain JSON numbers.
// The narrow integer fields are deliberate: the event is copied on every
// ring append and sits 256-deep in each recorder's pending batch, so its
// size is hot-path cache traffic. int32/int16/uint32 keep it at 80 bytes
// (unsafe.Sizeof, amd64) without losing range — sessions and segments stay
// far below 2^31, ladders below 2^15, and per-decision solver deltas below
// 2^32.
type DecisionEvent struct {
	// Session labels the originating session (the trace index of a dataset
	// run, or the DecideService's per-session id).
	Session int32 `json:"session"`
	// Segment is the segment index the decision was made for.
	Segment int32 `json:"segment"`
	// Rung is the chosen ladder rung; -1 is a wait (no download).
	Rung int16 `json:"rung"`
	// PrevRung is the previously committed rung (-1 before the first).
	PrevRung int16 `json:"prev_rung"`
	// Timed reports whether SolveSeconds holds a measured Decide latency
	// (latency is sampled, not measured every decision, to keep the hot
	// path inside the telemetry overhead budget). Declared here so it
	// packs into the leading integer word.
	Timed bool `json:"timed,omitempty"`
	// Buffer is the playback buffer level when Decide was called.
	Buffer units.Seconds `json:"buffer_s"`
	// Throughput is the last measured segment throughput fed to the
	// controller (the predictor input; 0 before the first download).
	Throughput units.Mbps `json:"throughput_mbps"`
	// Bitrate is the chosen rung's nominal rate (0 on wait).
	Bitrate units.Mbps `json:"bitrate_mbps,omitempty"`
	// WaitSeconds is the idle duration of a wait decision.
	WaitSeconds units.Seconds `json:"wait_s,omitempty"`
	// Solves/Nodes/SharedHits are the solver-work deltas this decision
	// cost, snapshotted from SolveStats after Decide returned (zero for
	// controllers that expose no stats).
	Solves     uint32 `json:"solves,omitempty"`
	Nodes      uint32 `json:"nodes,omitempty"`
	SharedHits uint32 `json:"shared_hits,omitempty"`
	// TableHits counts compiled decision-table hits this decision cost (1 on
	// a table-served decision, 0 on a fallback or for untabled controllers).
	TableHits uint32 `json:"table_hits,omitempty"`
	// SolveSeconds is the measured Decide latency; only meaningful when
	// Timed is set.
	SolveSeconds units.Seconds `json:"solve_s,omitempty"`
	// AtSeconds is the harness clock at the decision: the stream clock of a
	// simulated session (sim.Run / sim.Fleet) or, for a serving decide, the
	// service clock — monotonic time since the decide service started, the
	// clock its flight-recorder spans share. Timeline reconstruction and the
	// Chrome trace export order events by it; 0 means the harness did not
	// stamp.
	AtSeconds units.Seconds `json:"at_s,omitempty"`
}

// Ring is a fixed-capacity overwrite-oldest buffer of records — the one
// recording substrate behind the decision trace, the flight recorder's
// request records and the watchdog's incident log. A single mutex guards it:
// appends copy one record under the lock and batch appends amortise the lock
// over many, so the ring never allocates after construction and never drops
// a record.
type Ring[T any] struct {
	mu sync.Mutex
	//soda:guard mu
	buf  []T
	mask uint64
	//soda:guard mu
	next uint64 // total records ever appended; the next record's sequence number
}

// DefaultRingCapacity holds ~a minute of fleet decision traffic at the
// simulator's decision rates; see DESIGN.md §6 for the sizing argument.
const DefaultRingCapacity = 4096

// NewRing builds a ring holding the last capacity records (rounded up to a
// power of two; non-positive capacities get DefaultRingCapacity).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Append records one record, overwriting the oldest once full.
//
//soda:noalloc
func (r *Ring[T]) Append(v T) {
	r.mu.Lock()
	r.buf[r.next&r.mask] = v
	r.next++
	r.mu.Unlock()
}

// AppendBatch records a slice of records under one lock acquisition — the
// SessionRecorder flush path.
//
//soda:noalloc
func (r *Ring[T]) AppendBatch(vs []T) {
	if len(vs) == 0 {
		return
	}
	r.mu.Lock()
	for i := range vs {
		r.buf[r.next&r.mask] = vs[i]
		r.next++
	}
	r.mu.Unlock()
}

// Len returns the number of records currently held.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held()
}

// Total returns the number of records ever appended.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

//soda:locked mu
func (r *Ring[T]) held() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Snapshot copies the held records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	_, recs := r.SnapshotSeq()
	return recs
}

// SnapshotSeq copies the held records, oldest first, together with the
// sequence number of the first: record i was the (first+i)-th ever appended,
// counting from 0.
func (r *Ring[T]) SnapshotSeq() (first uint64, recs []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.held()
	recs = make([]T, n)
	first = r.next - uint64(n)
	for i := range recs {
		recs[i] = r.buf[(first+uint64(i))&r.mask]
	}
	return first, recs
}
