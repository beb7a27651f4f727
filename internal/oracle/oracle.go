// Package oracle computes the clairvoyant QoE-optimal bitrate schedule for a
// session: the best sequence of rung choices achievable with full knowledge
// of the future bandwidth, under the exact player dynamics of internal/sim
// (buffer cap idling, startup, rebuffering): its schedule is replayed on
// sim.Player.
//
// This is the "offline optimal" reference of the Sabre toolchain: it upper
// bounds every online controller and quantifies how much of the attainable
// QoE each controller realizes. The optimization is a dynamic program over
// (segment, previous rung, discretized buffer); within each step the exact
// continuous buffer dynamics are used, so discretization error appears only
// through the value-table lookup.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
)

// Config parameterizes the oracle.
type Config struct {
	Ladder    video.Ladder
	BufferCap units.Seconds
	// SessionSeconds is the stream length; 0 uses the trace duration.
	SessionSeconds units.Seconds
	// GridN is the buffer discretization (default 240).
	GridN int
	// Weights are the QoE weights (zero value = paper defaults).
	Weights qoe.Weights
	// Utility maps rung to [0,1]; nil = normalized log utility.
	Utility func(rung int) float64
}

// Result is the oracle's schedule and its realized QoE.
type Result struct {
	Rungs   []int
	Metrics qoe.Metrics
}

// Solve computes the clairvoyant optimal schedule for the trace.
//
// The DP maximizes Σ utility − β·(stallSec·N/(T·(N−1)))… more precisely it
// maximizes the per-session QoE score by charging each segment
// utility/N − β·stall/T_est − γ·switch/(N−1), with T_est = N·L (stall time
// second-order-corrects the denominator; for the sub-percent stall ratios of
// interest the approximation error is negligible and the returned Metrics
// are recomputed exactly by replaying the schedule).
func Solve(tr *trace.Trace, cfg Config) (Result, error) {
	if cfg.Ladder.Len() == 0 {
		return Result{}, fmt.Errorf("oracle: empty ladder")
	}
	if cfg.BufferCap < cfg.Ladder.SegmentSeconds {
		return Result{}, fmt.Errorf("oracle: buffer cap below one segment")
	}
	l := cfg.Ladder.SegmentSeconds
	session := cfg.SessionSeconds
	if session <= 0 {
		session = tr.Duration()
	}
	n := int(session / l)
	if n < 1 {
		return Result{}, fmt.Errorf("oracle: session shorter than one segment")
	}
	gridN := cfg.GridN
	if gridN <= 0 {
		gridN = 240
	}
	weights := cfg.Weights
	if weights == (qoe.Weights{}) {
		weights = qoe.DefaultWeights()
	}
	utility := cfg.Utility
	if utility == nil {
		utility = cfg.Ladder.LogUtility
	}
	nr := cfg.Ladder.Len()

	// State: the stream clock and buffer are coupled (clock = played +
	// stalls + idles). To keep the DP finite we track the buffer and the
	// clock approximately via the invariant clock ≈ seg*L − buffer + stalls;
	// downloads are priced at the bandwidth around that approximate clock.
	// The approximation is exact on constant-rate spans and good when
	// bandwidth varies on multi-second scales, which the generated traces do.
	bucketOf := func(x units.Seconds) int {
		b := int(x / cfg.BufferCap * units.Seconds(gridN-1))
		if b < 0 {
			b = 0
		}
		if b >= gridN {
			b = gridN - 1
		}
		return b
	}
	xOf := func(b int) units.Seconds { return units.Seconds(b) / units.Seconds(gridN-1) * cfg.BufferCap }

	const neg = -math.MaxFloat64 / 4
	// value[r][b]: best attainable future score from segment seg with
	// previous rung r (nr = none) and buffer bucket b. Iterate backward.
	value := make([][]float64, nr+1)
	next := make([][]float64, nr+1)
	choice := make([][][]int8, n)
	for r := 0; r <= nr; r++ {
		value[r] = make([]float64, gridN)
		next[r] = make([]float64, gridN)
	}
	for seg := 0; seg < n; seg++ {
		choice[seg] = make([][]int8, nr+1)
		for r := 0; r <= nr; r++ {
			choice[seg][r] = make([]int8, gridN)
		}
	}

	segScore := func(seg, rung, prev int, buffer units.Seconds) (float64, units.Seconds, bool) {
		// Approximate stream clock at this state.
		clock := units.Seconds(seg)*l - buffer
		if clock < 0 {
			clock = 0
		}
		size := cfg.Ladder.SegmentMegabits(rung)
		dl, err := tr.DownloadTime(clock, size)
		if err != nil {
			return 0, 0, false
		}
		stall := units.Seconds(math.Max(0, float64(dl-buffer)))
		nb := units.Seconds(math.Max(float64(buffer-dl), 0)) + l
		if nb > cfg.BufferCap {
			nb = cfg.BufferCap // the player idles at the cap
		}
		score := utility(rung) / float64(n)
		score -= weights.Beta * float64(stall) / (float64(n) * float64(l))
		if prev >= 0 && prev != rung && n > 1 {
			score -= weights.Gamma / float64(n-1)
		}
		return score, nb, true
	}

	for seg := n - 1; seg >= 0; seg-- {
		for r := 0; r <= nr; r++ {
			prev := r
			if r == nr {
				prev = -1
			}
			for b := 0; b < gridN; b++ {
				best := neg
				var bestR int8
				x := xOf(b)
				for rung := 0; rung < nr; rung++ {
					s, nb, ok := segScore(seg, rung, prev, x)
					if !ok {
						continue
					}
					total := s + value[rung][bucketOf(nb)]
					if total > best {
						best = total
						bestR = int8(rung)
					}
				}
				next[r][b] = best
				choice[seg][r][b] = bestR
			}
		}
		value, next = next, value
	}

	// Replay the policy on the simulator's player with exact continuous state
	// to extract the schedule and its true metrics.
	var tally qoe.SessionTally
	player := sim.Player{Segment: l, BufferCap: cfg.BufferCap, Startup: 1, Tally: &tally}
	st := arena.State{PrevRung: -1}
	for seg := 0; seg < n; seg++ {
		player.ToCap(&st)
		idx := int(st.PrevRung)
		if idx < 0 {
			idx = nr
		}
		rung := int(choice[seg][idx][bucketOf(st.Buffer)])
		dl, err := player.Download(&st, tr, st.Clock, cfg.Ladder.SegmentMegabits(rung))
		if err != nil {
			return Result{}, fmt.Errorf("oracle: replay segment %d: %w", seg, err)
		}
		player.Deposit(&st, rung, dl)
		tally.AddSegment(rung, utility(rung))
	}
	player.Drain(&st)
	return Result{Rungs: tally.Rungs(), Metrics: tally.Finalize(weights)}, nil
}
