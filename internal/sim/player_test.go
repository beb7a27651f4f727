package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/arena"
	"repro/internal/qoe"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
)

// TestStepPlayer steps the one player through each of its rules. Seconds and
// Mb/s are plain numbers: a state starts at clock, buffer and segment (1 or
// more means playing), and after its step must hold the step's return value
// (the idle, or the download time), the clock, the buffer, the stall and the
// start-up time.
func TestStepPlayer(t *testing.T) {
	const segment, bufferCap = units.Seconds(2), units.Seconds(10)
	flat := trace.Constant(units.Mbps(4), units.Seconds(100))
	// 2 s at 4 Mb/s, 1 s of outage, 1 s at 8 Mb/s, then the trace wraps.
	bumpy := trace.New([]trace.Sample{
		{Duration: units.Seconds(2), Mbps: units.Mbps(4)},
		{Duration: units.Seconds(1), Mbps: units.Mbps(0)},
		{Duration: units.Seconds(1), Mbps: units.Mbps(8)},
	})
	wait := func(w float64) func(*Player, *arena.State) (units.Seconds, error) {
		return func(p *Player, st *arena.State) (units.Seconds, error) { return p.Wait(st, units.Seconds(w)), nil }
	}
	// fetch idles to the cap, then downloads megabits over tr from the
	// clock and deposits the segment, as every caller does.
	fetch := func(tr *trace.Trace, megabits float64) func(*Player, *arena.State) (units.Seconds, error) {
		return func(p *Player, st *arena.State) (units.Seconds, error) {
			p.ToCap(st)
			dl, err := p.Download(st, tr, st.Clock, units.Megabits(megabits))
			if err == nil {
				p.Deposit(st, 1, dl)
			}
			return dl, err
		}
	}
	cases := []struct {
		name                        string
		clock, buffer               float64
		segment                     int32
		step                        func(*Player, *arena.State) (units.Seconds, error)
		want, wantClock, wantBuffer float64
		wantStall, wantStartup      float64
		wantErr                     error
	}{
		{name: "wait drains", buffer: 5, segment: 1, step: wait(1.5), want: 1.5, wantClock: 1.5, wantBuffer: 3.5},
		{name: "wait capped at the buffer", buffer: 0.5, segment: 1, step: wait(1.5), want: 0.5, wantClock: 0.5},
		{name: "non-positive wait is half a segment", buffer: 5, segment: 1, step: wait(0), want: 1, wantClock: 1, wantBuffer: 4},
		{name: "over-long wait is half a segment", buffer: 5, segment: 1, step: wait(3), want: 1, wantClock: 1, wantBuffer: 4},
		{name: "NaN wait is half a segment", buffer: 5, segment: 1, step: wait(math.NaN()), want: 1, wantClock: 1, wantBuffer: 4},
		{name: "empty buffer waits not at all", segment: 1, step: wait(1.5)},
		{name: "download deposits a segment", buffer: 4, segment: 1, step: fetch(flat, 4), want: 1, wantClock: 1, wantBuffer: 5},
		// 9 + 2 > 10: the player idles 1 s to the cap first, so the deposit
		// cannot overfill.
		{name: "download capped", buffer: 9, segment: 1, step: fetch(flat, 4), want: 1, wantClock: 2, wantBuffer: 9},
		{name: "underflow charged as stall", buffer: 1, segment: 1, step: fetch(flat, 32), want: 8, wantClock: 8,
			wantBuffer: 2, wantStall: 7},
		// 2^-16 s past the buffer: a stall far below a millisecond counts.
		{name: "short underflow charged as stall", buffer: 1, segment: 1, step: fetch(flat, 4+0x1p-14), want: 1 + 0x1p-16,
			wantClock: 1 + 0x1p-16, wantBuffer: 2, wantStall: 0x1p-16},
		{name: "start-up not charged as stall", step: fetch(flat, 32), want: 8, wantClock: 8, wantBuffer: 2, wantStartup: 8},
		// From 1 s: 4 Mb by 2 s, none by 3 s, 8 Mb by 4 s, and the wrap's
		// first sample carries the last 4 Mb in 1 s.
		{name: "download crosses samples and the wrap", clock: 1, buffer: 8, segment: 1, step: fetch(bumpy, 16),
			want: 4, wantClock: 5, wantBuffer: 6},
		{name: "zero-bandwidth trace stalls", buffer: 4, segment: 1,
			step: fetch(trace.Constant(units.Mbps(0), units.Seconds(100)), 4), wantBuffer: 4, wantErr: trace.ErrStalled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tally qoe.SessionTally
			p := Player{Segment: segment, BufferCap: bufferCap, Startup: 1, Tally: &tally}
			st := arena.State{Clock: units.Seconds(tc.clock), Buffer: units.Seconds(tc.buffer), Segment: tc.segment}
			got, err := tc.step(&p, &st)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
			m := tally.Finalize(qoe.Weights{})
			if float64(got) != tc.want || float64(st.Clock) != tc.wantClock || float64(st.Buffer) != tc.wantBuffer ||
				float64(st.Stall) != tc.wantStall || float64(m.RebufferSec) != tc.wantStall ||
				float64(m.StartupSec) != tc.wantStartup {
				t.Fatalf("step, clock, buffer, stall, tallied stall, start-up = %g, %g, %g, %g, %g, %g; want %g, %g, %g, %g, %g, %g",
					got, st.Clock, st.Buffer, st.Stall, m.RebufferSec, m.StartupSec,
					tc.want, tc.wantClock, tc.wantBuffer, tc.wantStall, tc.wantStall, tc.wantStartup)
			}
		})
	}

	// The position rule: from each stream time, a session's download and
	// throughput equal trace.DownloadTime and BandwidthAt bit for bit on
	// an integer-second trace, across its wrap.
	t.Run("position matches DownloadTime", func(t *testing.T) {
		tr, err := tracegen.Puffer().Session(units.Seconds(120), 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := Player{Segment: segment, BufferCap: bufferCap, Startup: 1}
		var st arena.State
		for k := 0; k < 400; k++ {
			at := units.Seconds(float64(k) * 0.7316)
			mb := units.Megabits(1 + float64(k%7)*3.3)
			want, err := tr.DownloadTime(at, mb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Download(&st, tr, at, mb)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("at %v s: download %v s from the position, DownloadTime %v s", at, got, want)
			}
			st.Clock = at
			if got, want := p.Throughput(&st, tr), tr.BandwidthAt(at); got != want {
				t.Fatalf("at %v s: throughput %v at the position, BandwidthAt %v", at, got, want)
			}
		}
		if st.Base < tr.Duration() {
			t.Fatalf("position base %v s: the walk never wrapped the %v s trace", st.Base, tr.Duration())
		}
	})
}

// TestPlayerDrainAndStartup pins the session-end drain and a multi-segment
// start-up: playback starts with the Startup-th segment, and Drain plays out
// the buffer only once it has.
func TestPlayerDrainAndStartup(t *testing.T) {
	var tally qoe.SessionTally
	p := Player{Segment: units.Seconds(2), BufferCap: units.Seconds(10), Startup: 2, Tally: &tally}
	var st arena.State
	p.Drain(&st)
	if p.Deposit(&st, 0, units.Seconds(3)); p.playing(&st) || st.Clock != 3 {
		t.Fatalf("after one of two start-up segments: playing %v at clock %v, want false at 3", p.playing(&st), st.Clock)
	}
	if p.Deposit(&st, 0, units.Seconds(1)); !p.playing(&st) || st.Buffer != 4 {
		t.Fatalf("after both start-up segments: playing %v with buffer %v, want true with 4", p.playing(&st), st.Buffer)
	}
	p.Drain(&st)
	m := tally.Finalize(qoe.Weights{})
	if st.Buffer != 0 || st.Clock != 8 || m.StartupSec != 4 || m.PlaySec != 4 || m.RebufferSec != 0 {
		t.Fatalf("after drain: buffer %v clock %v start-up %v play %v stall %v; want 0, 8, 4, 4, 0",
			st.Buffer, st.Clock, m.StartupSec, m.PlaySec, m.RebufferSec)
	}
}
