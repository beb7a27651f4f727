package sim

import (
	"repro/internal/arena"
	"repro/internal/qoe"
	"repro/internal/trace"
	"repro/internal/units"
)

// Player is the one playback model: Run, Fleet, the load generator's virtual
// players, the oracle's replay and the prototype player all step it. Its
// buffer follows x' = x + L − Δt per segment of L seconds fetched in Δt:
// callers idle to the cap (ToCap) before asking the controller, a wait
// follows the wait rule (Wait), playback starts once Startup segments have
// arrived and time before that is start-up, never stall, time drains the
// buffer and charges stall only where playback outruns it (Advance), a
// download integrates the trace from the session's own position (Download)
// and deposits its segment when it completes (Deposit), and the buffer plays
// out at the end (Drain).
//
// A Player holds only configuration and never writes it, so with a nil Tally
// one value serves many sessions at once. A session's state is an
// arena.State whose PrevRung starts at abr.NoRung.
type Player struct {
	Segment   units.Seconds // segment duration L
	BufferCap units.Seconds
	Startup   int32             // segments that must arrive before playback starts
	Tally     *qoe.SessionTally // nil, or receives start-up, playback and rebuffering
}

//soda:noalloc
func (p *Player) playing(st *arena.State) bool { return st.Segment >= p.Startup }

// Advance moves the session's clock forward by dt and returns the stall it
// charged.
//
//soda:noalloc
func (p *Player) Advance(st *arena.State, dt units.Seconds) units.Seconds {
	if !(dt > 0) {
		return 0
	}
	st.Clock += dt
	if !p.playing(st) {
		if p.Tally != nil {
			p.Tally.AddStartup(dt)
		}
		return 0
	}
	played := min(dt, st.Buffer)
	st.Buffer -= played
	if p.Tally != nil {
		p.Tally.AddPlayback(played)
	}
	stall := dt - played
	if stall <= 1e-12 {
		return 0
	}
	st.Stall += stall
	if p.Tally != nil {
		p.Tally.AddRebuffer(stall)
	}
	return stall
}

// ToCap idles until one more segment fits under the buffer cap and returns
// the time it idled.
//
//soda:noalloc
func (p *Player) ToCap(st *arena.State) units.Seconds {
	over := st.Buffer + p.Segment - p.BufferCap
	if !(over > 1e-9) {
		return 0
	}
	p.Advance(st, over)
	return over
}

// Wait idles for a controller's wait — half a segment when it is outside
// (0, Segment], never more than the buffer — and returns the time it idled.
// On an empty buffer it returns 0 without idling: the caller downloads rung
// 0 instead.
//
//soda:noalloc
func (p *Player) Wait(st *arena.State, wait units.Seconds) units.Seconds {
	if st.Buffer <= 1e-9 {
		return 0
	}
	if !(wait > 0 && wait <= p.Segment) {
		wait = p.Segment / 2
	}
	wait = min(wait, st.Buffer)
	p.Advance(st, wait)
	return wait
}

// Throughput returns the bandwidth of tr at the session's clock: the fleet's
// and the load generator's throughput estimate.
//
//soda:noalloc
func (p *Player) Throughput(st *arena.State, tr *trace.Trace) units.Mbps {
	p.seek(st, tr, st.Clock)
	return tr.Samples()[st.Cursor].Mbps
}

// Download returns how long tr takes to carry megabits from stream time at,
// which must not precede a time the session located before.
//
//soda:noalloc
func (p *Player) Download(st *arena.State, tr *trace.Trace, at units.Seconds, megabits units.Megabits) (units.Seconds, error) {
	off := p.seek(st, tr, at)
	return tr.TransferTime(int(st.Cursor), off, megabits)
}

// seek moves the session's position to stream time at and returns the offset
// of at into the sample there.
//
//soda:noalloc
func (p *Player) seek(st *arena.State, tr *trace.Trace, at units.Seconds) units.Seconds {
	idx, base := tr.Seek(int(st.Cursor), st.Base, at)
	st.Cursor, st.Base = int32(idx), base
	return at - base
}

// Deposit completes a download of rung that took dt seconds and returns the
// stall it charged.
//
//soda:noalloc
func (p *Player) Deposit(st *arena.State, rung int, dt units.Seconds) units.Seconds {
	stall := p.Advance(st, dt)
	st.Buffer += p.Segment
	st.PrevRung = int32(rung)
	st.Segment++
	return stall
}

// Drain plays out the buffer at the end of a session.
func (p *Player) Drain(st *arena.State) {
	if p.playing(st) {
		p.Advance(st, st.Buffer)
	}
}
