package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// datasetSizes sizes the dataset workload: rounds of sim.RunMany over one
// synthesized Puffer dataset.
type datasetSizes struct {
	traces, rounds, checkEvery int
	traceSeconds               units.Seconds
}

func datasetSizesFor(c runConfig) datasetSizes {
	if c.small {
		return datasetSizes{traces: 16, rounds: 2, checkEvery: 8, traceSeconds: units.Seconds(120)}
	}
	return datasetSizes{traces: 512, rounds: max(10, int(math.Round(4*c.seconds))), checkEvery: 8,
		traceSeconds: units.Seconds(600)}
}

// figure10Arm is the Figure 10 SODA arm's session factory: production
// config, a shared solve cache, the 4 s EMA predictor.
func figure10Arm(ladder video.Ladder, cache *core.SolveCache) sim.SessionFactory {
	return func() (abr.Controller, predictor.Predictor) {
		cfg := core.DefaultConfig()
		cfg.SharedCache = cache
		return core.New(cfg, ladder), predictor.NewEMA(units.Seconds(4))
	}
}

// datasetBufferCap is the Figure 10 buffer cap.
const datasetBufferCap = units.Seconds(20)

// datasetInstance is the synthesized dataset.
type datasetInstance struct {
	traces []*trace.Trace
	synthS float64
}

// buildDataset synthesizes the traces and runs one untimed round, so code
// and allocator are warm when the timed rounds start.
func buildDataset(sz datasetSizes, seed uint64) (*datasetInstance, error) {
	start := time.Now()
	ds, err := tracegen.Generate(tracegen.Puffer(), sz.traces, sz.traceSeconds, seed)
	if err != nil {
		return nil, fmt.Errorf("synthesizing traces: %w", err)
	}
	inst := &datasetInstance{traces: ds.Sessions, synthS: time.Since(start).Seconds()}
	if _, err := runRound(inst, sz, false, make([]sessionCost, sz.traces)); err != nil {
		return nil, err
	}
	return inst, nil
}

// sessionCost is one simulated session's wall time and decision count.
type sessionCost struct {
	ns        int64
	decisions int64
}

// roundResult is one round's sessions plus, for a traced round, the time its
// timing shims attributed to the controller and predictor.
type roundResult struct {
	metrics                    []qoe.Metrics
	stats                      core.SolveStats
	decideNS, predictNS, obsNS int64
}

// runRound is one Figure 10 SODA pass over the dataset: a fresh shared solve
// cache, sim.RunMany's worker pool, and per-session timing taken from the
// factory call that starts a session to the OnResult hook that ends it. A
// traced round wraps controller and predictor in timing shims.
func runRound(inst *datasetInstance, sz datasetSizes, traced bool, costs []sessionCost) (*roundResult, error) {
	ladder := video.YouTube4K()
	arm := figure10Arm(ladder, core.NewSolveCache(1<<16))
	epoch := time.Now()
	clock := func() time.Duration { return time.Since(epoch) }
	var mu sync.Mutex
	starts := map[abr.Controller]time.Duration{}
	out := &roundResult{}
	factory := func() (abr.Controller, predictor.Predictor) {
		ctrl, pred := arm()
		if traced {
			tp := &timedPredictor{inner: pred, clock: clock}
			ctrl, pred = &timedController{inner: ctrl.(*core.Controller), pred: tp, clock: clock}, tp
		}
		mu.Lock()
		starts[ctrl] = clock()
		mu.Unlock()
		return ctrl, pred
	}
	onResult := func(i int, ctrl abr.Controller, res sim.Result) {
		end := clock()
		mu.Lock()
		defer mu.Unlock()
		costs[i] = sessionCost{ns: int64(end - starts[ctrl]), decisions: int64(len(res.Rungs) + res.Waits)}
		delete(starts, ctrl)
		if tc, ok := ctrl.(*timedController); ok {
			out.stats.Add(tc.inner.SolveStats())
			out.decideNS += int64(tc.decide)
			out.predictNS += int64(tc.pred.predict)
			out.obsNS += int64(tc.pred.observe)
		}
	}
	metrics, err := sim.RunDataset(inst.traces, factory, sim.Config{Ladder: ladder,
		BufferCap: datasetBufferCap, SessionSeconds: sz.traceSeconds, OnResult: onResult})
	if err != nil {
		return nil, err
	}
	out.metrics = metrics
	return out, nil
}

// timedController wraps a traced session's SODA controller and accumulates
// the time spent in Decide, which includes the predictor calls Decide makes.
// The clock is injected: the shim has a controller's shape, and controller
// code reads no ambient clock.
type timedController struct {
	inner  *core.Controller
	pred   *timedPredictor
	clock  func() time.Duration
	decide time.Duration
}

func (c *timedController) Name() string { return c.inner.Name() }
func (c *timedController) Reset()       { c.inner.Reset() }

func (c *timedController) Decide(ctx *abr.Context) abr.Decision {
	t0 := c.clock()
	d := c.inner.Decide(ctx)
	c.decide += c.clock() - t0
	return d
}

// timedPredictor wraps a traced session's predictor and accumulates the time
// spent in Predict and Observe.
type timedPredictor struct {
	inner            predictor.Predictor
	clock            func() time.Duration
	predict, observe time.Duration
}

func (p *timedPredictor) Observe(s predictor.Sample) {
	t0 := p.clock()
	p.inner.Observe(s)
	p.observe += p.clock() - t0
}

func (p *timedPredictor) Predict(now, horizon units.Seconds) units.Mbps {
	t0 := p.clock()
	v := p.inner.Predict(now, horizon)
	p.predict += p.clock() - t0
	return v
}

func (p *timedPredictor) Reset() { p.inner.Reset() }

// datasetRounds is a timed run of rounds: the per-session costs in round
// order, each round's wall time, the first round's metrics and the summed
// shim data.
type datasetRounds struct {
	costs   []sessionCost
	walls   []time.Duration
	metrics []qoe.Metrics
	shims   roundResult
}

// runRounds runs rounds timed rounds. Every round must reproduce the first
// round's metrics exactly: the shared cache is fresh per round and
// bit-identical by contract.
func runRounds(inst *datasetInstance, sz datasetSizes, rounds int, traced bool) (*datasetRounds, error) {
	n := len(inst.traces)
	r := &datasetRounds{costs: make([]sessionCost, rounds*n), walls: make([]time.Duration, rounds)}
	for k := 0; k < rounds; k++ {
		start := time.Now()
		res, err := runRound(inst, sz, traced, r.costs[k*n:(k+1)*n])
		if err != nil {
			return nil, err
		}
		r.walls[k] = time.Since(start)
		if k == 0 {
			r.metrics = res.metrics
		} else if i := firstMismatch(r.metrics, res.metrics); i >= 0 {
			return nil, fmt.Errorf("dataset: round %d session %d: %+v, round 0: %+v", k, i, res.metrics[i], r.metrics[i])
		}
		r.shims.stats.Add(res.stats)
		r.shims.decideNS += res.decideNS
		r.shims.predictNS += res.predictNS
		r.shims.obsNS += res.obsNS
	}
	return r, nil
}

func firstMismatch(a, b []qoe.Metrics) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// quietSessions is each trace's session as the round that replayed it most
// quietly timed it: the quietest-share quantile of its wall time over the
// rounds. Every round replays every trace with identical decisions.
func (r *datasetRounds) quietSessions() []sessionCost {
	n := len(r.costs) / len(r.walls)
	out := make([]sessionCost, n)
	repeats := make([]int64, len(r.walls))
	for i := range out {
		for k := range repeats {
			repeats[k] = r.costs[k*n+i].ns
		}
		out[i] = sessionCost{ns: quietRepeat(repeats), decisions: r.costs[i].decisions}
	}
	return out
}

// costQuantile is the q-quantile over the traces of a quiet session's wall
// ns per decision.
func costQuantile(sessions []sessionCost, q float64) float64 {
	cost := make([]float64, len(sessions))
	for i, c := range sessions {
		cost[i] = float64(c.ns) / float64(max(c.decisions, 1))
	}
	return nearestRank(sortedCopy(cost), q)
}

// rate is a round of quiet sessions' decisions per wall-second.
func rate(sessions []sessionCost) float64 {
	var decisions, ns int64
	for _, c := range sessions {
		decisions += c.decisions
		ns += c.ns
	}
	return 1e9 * ratio(float64(decisions), float64(ns))
}

// totals returns the decisions and the summed session wall time.
func (r *datasetRounds) totals() (decisions, ns int64) {
	for _, c := range r.costs {
		decisions += c.decisions
		ns += c.ns
	}
	return decisions, ns
}

// checkDataset reruns every checkEvery-th trace on a bare controller — no
// shared cache, a one-entry memo that only keeps the arm's input
// quantization — and requires the round's metrics exactly.
func checkDataset(inst *datasetInstance, sz datasetSizes, metrics []qoe.Metrics) error {
	ladder := video.YouTube4K()
	cfg := core.DefaultConfig()
	cfg.SolveMemoSize = 1
	for i := 0; i < len(inst.traces); i += sz.checkEvery {
		res, err := sim.Run(inst.traces[i], sim.Config{Ladder: ladder, BufferCap: datasetBufferCap,
			SessionSeconds: sz.traceSeconds, Controller: core.New(cfg, ladder),
			Predictor: predictor.NewEMA(units.Seconds(4))})
		if err != nil {
			return fmt.Errorf("dataset reference: trace %d: %w", i, err)
		}
		if res.Metrics != metrics[i] {
			return fmt.Errorf("dataset reference: trace %d: %+v, with the shared cache %+v", i, res.Metrics, metrics[i])
		}
	}
	return nil
}

func meanScore(metrics []qoe.Metrics) float64 {
	var sum float64
	for _, m := range metrics {
		sum += m.Score
	}
	return ratio(sum, float64(len(metrics)))
}

// runDataset measures on one worker: sim.RunMany sizes its pool from
// GOMAXPROCS, and on a shared two-vCPU host a neighbour can hold one vCPU for
// minutes, which halves a two-worker throughput.
func runDataset(c runConfig) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sz := datasetSizesFor(c)
	if c.traced {
		return runDatasetTraced(c, sz)
	}
	repeats := setupRepeats
	if c.small {
		repeats = 1
	}
	inst, setupS, err := buildRepeated(repeats, func() (*datasetInstance, error) { return buildDataset(sz, c.seed) }, nil)
	if err != nil {
		return nil, err
	}
	r, err := runRounds(inst, sz, sz.rounds, false)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	decisions, _ := r.totals()
	quiet := r.quietSessions()
	return &outcome{
		attempted: decisions,
		values: map[string]float64{
			"setup_s":         setupS,
			"decisions_per_s": rate(quiet),
			"decide_p50_us":   costQuantile(quiet, 0.50) / 1e3,
			"decide_p99_us":   costQuantile(quiet, 0.99) / 1e3,
			"served_pct":      100,
			"heap_mb":         heap,
			"qoe_score":       meanScore(r.metrics),
		},
		checkErr: checkDataset(inst, sz, r.metrics),
	}, nil
}

// runDatasetTraced splits the rounds into an untraced half, the tracing
// baseline, and a traced half whose shims attribute each session's time to
// the controller (self time, the predictor calls it makes excluded), the
// predictor, and the simulator's own loop.
func runDatasetTraced(c runConfig, sz datasetSizes) (*outcome, error) {
	inst, err := buildDataset(sz, c.seed)
	if err != nil {
		return nil, err
	}
	half := max(1, sz.rounds/2)
	base, err := runRounds(inst, sz, half, false)
	if err != nil {
		return nil, err
	}
	baseDecisions, _ := base.totals()
	rt0 := readRuntime()
	tr, err := runRounds(inst, sz, half, true)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	decisions, sessionNS := tr.totals()
	d := float64(decisions)
	baseP50 := costQuantile(base.quietSessions(), 0.50)
	v := map[string]float64{
		"core.decide_ns":               float64(tr.shims.decideNS-tr.shims.predictNS) / d,
		"predictor.ns_per_decision":    float64(tr.shims.predictNS+tr.shims.obsNS) / d,
		"sim.run_self_ns_per_decision": float64(sessionNS-tr.shims.decideNS-tr.shims.obsNS) / d,
		"tracegen.synth_s":             inst.synthS,
		"trace.overhead_pct":           100 * (costQuantile(tr.quietSessions(), 0.50) - baseP50) / baseP50,
	}
	setCoreCounters(v, tr.shims.stats, d)
	setRuntime(v, rt0, rt1, d)
	setZero(v, "driver.lag_p50_us", "driver.lag_p99_us", "driver.sched_p99_us", "driver.achieved_pct",
		"httpseg.ratelimit_ns", "httpseg.inflight_ns", "httpseg.session_ns", "httpseg.arena_ns",
		"httpseg.decide_ns", "httpseg.post_ns", "httpseg.respond_ns", "httpseg.session_p99_ns",
		"httpseg.decide_p99_ns", "sessiontable.creates_per_decision", "sessiontable.evictions_per_decision",
		"sessiontable.rejected_capacity", "core.table_compile_s", "sim.fleet_advance_ms",
		"sim.fleet_waits_per_decision", "sim.fleet_stall_s_per_session_hour", "arena.high_water",
		"arena.slabs", "arena.bytes_per_session", "trace.span_gap_pct")
	var shimErr error
	if i := firstMismatch(base.metrics, tr.metrics); i >= 0 {
		shimErr = fmt.Errorf("dataset: session %d changed under the timing shims", i)
	}
	return &outcome{values: v, attempted: baseDecisions + decisions,
		checkErr: firstErr(shimErr, checkDataset(inst, sz, tr.metrics))}, nil
}
