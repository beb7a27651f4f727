package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/httpseg"
	"repro/internal/qoe"
	"repro/internal/sessiontable"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/units"
	"repro/internal/video"
)

// serveTableQuantum is soda-server's default -decide-table-quantum. The
// table-backed controllers quantize every solver input at this step, so the
// replay reference solves at it too.
const serveTableQuantum = 0.5

// serveSizes sizes one serve workload. Request counts are multiples of 64 so
// the churn stream's creations per phase are exact.
type serveSizes struct {
	sessions     int // steady: long-lived sessions; churn: concurrently active sessions
	pool         int // synthesized Puffer traces
	traceSeconds units.Seconds
	warmup       int     // requests issued during set-up
	rate         float64 // open-loop offered rate, requests/s
	open, closed int     // requests per timed phase
	sampleEvery  int     // the replay check covers every sampleEvery-th session
	maxSessions  int     // session-table capacity (0: the server default)
	ttl          time.Duration
}

// round64 rounds n up to a multiple of 64 (at least 64).
func round64(n float64) int { return max(64, int(math.Ceil(n/64))*64) }

func steadySizes(c runConfig) serveSizes {
	if c.small {
		return serveSizes{sessions: 128, pool: 16, traceSeconds: units.Seconds(120), warmup: 1024,
			rate: 20000, open: 1024, closed: 2048, sampleEvery: 16}
	}
	return serveSizes{sessions: 4096, pool: 1024, traceSeconds: units.Seconds(600), warmup: 8 * 4096,
		rate: 50000, open: round64(50000 * c.seconds / 2), closed: round64(150000 * c.seconds),
		sampleEvery: 16}
}

// churnSizes keep live sessions from ever being reclaimed and the oldest
// retired entry always reclaimable: a full shard's least recently used entry
// retired about maxSessions·8 requests ago, far longer than the 1 ms TTL at
// any request rate, while a live session is never the least recently used.
// The warm-up creates twice the table's capacity, so every timed creation
// reclaims one entry. The table holds 1024 sessions, so each creation scans
// a full shard of 512. With a 4096-session table's 2048-entry shards the
// scan's cost, which sets the workload's 99th percentile, spread by 22-35%
// over eight runs with the host's load; with 512-entry shards, by 5-9%.
func churnSizes(c runConfig) serveSizes {
	if c.small {
		return serveSizes{sessions: 64, pool: 8, traceSeconds: units.Seconds(120), warmup: 8192,
			rate: 20000, open: 1024, closed: 2048, sampleEvery: 16,
			maxSessions: 512, ttl: time.Millisecond}
	}
	return serveSizes{sessions: 64, pool: 64, traceSeconds: units.Seconds(600), warmup: 2 * 1024 * churnLife,
		rate: 20000, open: round64(20000 * c.seconds / 2), closed: round64(100000 * c.seconds),
		sampleEvery: 16, maxSessions: 1024, ttl: time.Millisecond}
}

// requestStream produces a serve workload's requests and absorbs the
// responses (the churn players' buffers depend on them).
type requestStream interface {
	// next fills req and returns the stream's ordinal of the session it is for.
	next(req *httpseg.DecideRequest) int
	done(req *httpseg.DecideRequest, res *httpseg.DecideResult)
}

// exchange is one recorded request/response of a sampled session.
type exchange struct {
	session int32 // stream ordinal
	id      int64 // server session id
	buffer  units.Seconds
	thr     units.Mbps
	cap     units.Seconds
	status  httpseg.DecideStatus
	segment int32
	rung    int32
	wait    float64
}

// serveTarget drives a DecideService through the in-process entry point
// soda-server's /decide handler calls, recording every sampled session's
// exchanges for the replay check.
type serveTarget struct {
	svc    *httpseg.DecideService
	stream requestStream
	every  int
	req    httpseg.DecideRequest
	res    httpseg.DecideResult
	sess   int
	log    []exchange
}

func (t *serveTarget) prepare(int) { t.sess = t.stream.next(&t.req) }

func (t *serveTarget) issue() bool {
	t.res = t.svc.Decide(&t.req)
	return t.res.Status == httpseg.StatusOK
}

func (t *serveTarget) finish(int) {
	t.stream.done(&t.req, &t.res)
	if t.sess%t.every == 0 {
		t.log = append(t.log, exchange{
			session: int32(t.sess), id: t.res.SessionID,
			buffer: t.req.Buffer, thr: t.req.Throughput, cap: t.req.BufferCap,
			status: t.res.Status, segment: int32(t.res.Segment),
			rung: int32(t.res.Rung), wait: t.res.WaitSeconds,
		})
	}
}

// serveInstance is one built serve workload: inputs, a service wired the way
// soda-server wires it, and the target driving it, warmed up.
type serveInstance struct {
	ladder video.Ladder
	svc    *httpseg.DecideService
	col    *telemetry.Collector
	flight *flightrec.Recorder
	target *serveTarget
	synthS float64
	warmed sessiontable.Stats // session-table counters once the warm-up ended
}

// buildServe synthesizes the inputs, builds the service with a flight
// recorder of spansPerStage slots (0: soda-server's default) and runs the
// warm-up.
func buildServe(churn bool, sz serveSizes, seed uint64, spansPerStage int) (*serveInstance, error) {
	start := time.Now()
	ds, err := tracegen.Generate(tracegen.Puffer(), sz.pool, sz.traceSeconds, seed)
	if err != nil {
		return nil, fmt.Errorf("synthesizing traces: %w", err)
	}
	inst := &serveInstance{synthS: time.Since(start).Seconds()}
	total := sz.warmup + sz.open + sz.closed
	var stream requestStream
	opts := httpseg.DecideOptions{CacheEntries: 1 << 16, TableQuantum: serveTableQuantum,
		MaxSessions: sz.maxSessions, SessionTTL: sz.ttl}
	if churn {
		inst.ladder = video.Prototype()
		stream = newChurnStream(inst.ladder, ds.Sessions, sz.sessions, total)
	} else {
		inst.ladder = video.YouTube4K()
		if stream, err = newSteadyStream(inst.ladder, ds.Sessions, sz); err != nil {
			return nil, err
		}
	}
	// soda-server's wiring: one collector, the flight recorder and the QoE
	// watchdog registered on it, all attached to the decide service.
	inst.col = telemetry.NewCollector(nil, telemetry.DefaultRingCapacity)
	inst.flight = flightrec.NewRecorder(inst.col.Registry, spansPerStage)
	opts.FlightRecorder = inst.flight
	opts.Watchdog = flightrec.NewWatchdog(inst.col.Registry, flightrec.WatchdogConfig{})
	if inst.svc, err = httpseg.NewDecideService(inst.ladder, opts, inst.col); err != nil {
		return nil, err
	}
	inst.target = &serveTarget{svc: inst.svc, stream: stream, every: sz.sampleEvery,
		log: make([]exchange, 0, total/sz.sampleEvery+1024)}
	if warm := closedLoop(inst.target, sz.warmup, sz.warmup); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests rejected", warm.failed, sz.warmup)
	}
	inst.warmed = inst.svc.SessionStats()
	return inst, nil
}

// steadyStream replays sim.Run SODA trajectories: session s walks trajectory
// s mod pool from a staggered start, reporting the buffer the player held
// when it asked for each segment and the trace's bandwidth at that moment.
// Requests go round-robin over the sessions, so every session stays warm.
type steadyStream struct {
	keys   []string
	buffer [][]units.Seconds
	thr    [][]units.Mbps
	offset []int
	cap    units.Seconds
	i      int
}

func newSteadyStream(ladder video.Ladder, traces []*trace.Trace, sz serveSizes) (*steadyStream, error) {
	bufferCap := units.Seconds(20)
	results, err := sim.RunMany(traces, figure10Arm(ladder, core.NewSolveCache(1<<16)), sim.Config{
		Ladder: ladder, BufferCap: bufferCap, SessionSeconds: sz.traceSeconds, RecordTrajectory: true,
	})
	if err != nil {
		return nil, fmt.Errorf("recording trajectories: %w", err)
	}
	s := &steadyStream{cap: bufferCap, keys: make([]string, sz.sessions), offset: make([]int, sz.sessions),
		buffer: make([][]units.Seconds, len(traces)), thr: make([][]units.Mbps, len(traces))}
	for k, res := range results {
		traj := res.Trajectory
		s.buffer[k] = make([]units.Seconds, len(traj))
		s.thr[k] = make([]units.Mbps, len(traj))
		for j := range traj {
			var at, held units.Seconds
			if j > 0 {
				// The player idles until a segment fits under the cap before
				// asking, so it reports at most cap - one segment.
				at, held = traj[j-1].Time, min(traj[j-1].Buffer, bufferCap-ladder.SegmentSeconds)
			}
			s.buffer[k][j], s.thr[k][j] = held, traces[k].BandwidthAt(at)
		}
	}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("steady-%d", i)
		s.offset[i] = (i / len(traces)) * 17
	}
	return s, nil
}

func (s *steadyStream) next(req *httpseg.DecideRequest) int {
	sess := s.i % len(s.keys)
	k := sess % len(s.buffer)
	j := (s.i/len(s.keys) + s.offset[sess]) % len(s.buffer[k])
	s.i++
	*req = httpseg.DecideRequest{Session: s.keys[sess], Buffer: s.buffer[k][j], Throughput: s.thr[k][j],
		BufferCap: s.cap, Segment: -1}
	return sess
}

func (s *steadyStream) done(*httpseg.DecideRequest, *httpseg.DecideResult) {}

// churnLife is how many requests one churn session makes.
const churnLife = 8

// churnStream keeps a fixed number of players active, each streaming
// churnLife segments before it leaves and a new session takes its slot.
// Slot j's first session is cut to churnLife - j mod churnLife requests, so
// from the second round of requests on exactly one in churnLife requests
// opens a session. Buffer caps cycle 10/20/30 s by session, and throughput
// is floored at 2.5x the top rung so every decision misses the compiled
// tables (their domain ends at 2x) and takes the shared-cache/solver path.
type churnStream struct {
	ladder video.Ladder
	keys   []string
	pool   [][]units.Mbps
	slots  []churnSlot
	opened int // sessions opened so far; the next session's ordinal
	i      int
	cur    *churnSlot
}

type churnSlot struct {
	session, left, cursor int
	buffer, cap           units.Seconds
}

var churnCaps = [3]units.Seconds{10, 20, 30}

func newChurnStream(ladder video.Ladder, traces []*trace.Trace, active, total int) *churnStream {
	floor := ladder.Mbps(ladder.Len()-1) * 2.5
	s := &churnStream{ladder: ladder, slots: make([]churnSlot, active),
		keys: make([]string, total/churnLife+2*active), pool: make([][]units.Mbps, len(traces))}
	for k, tr := range traces {
		for _, smp := range tr.Samples() {
			s.pool[k] = append(s.pool[k], max(smp.Mbps, floor))
		}
	}
	for n := range s.keys {
		s.keys[n] = fmt.Sprintf("churn-%d", n)
	}
	for j := range s.slots {
		s.open(&s.slots[j])
		s.slots[j].left = churnLife - j%churnLife
	}
	return s
}

// open seats the next session in a slot.
func (s *churnStream) open(slot *churnSlot) {
	n := s.opened
	s.opened++
	*slot = churnSlot{session: n, left: churnLife, cursor: n * 13, cap: churnCaps[n%len(churnCaps)]}
}

func (s *churnStream) next(req *httpseg.DecideRequest) int {
	slot := &s.slots[s.i%len(s.slots)]
	s.i++
	if slot.left == 0 {
		s.open(slot)
	}
	slot.left--
	samples := s.pool[slot.session%len(s.pool)]
	thr := samples[slot.cursor%len(samples)]
	slot.cursor++
	s.cur = slot
	*req = httpseg.DecideRequest{Session: s.keys[slot.session], Buffer: slot.buffer, Throughput: thr,
		BufferCap: slot.cap, Segment: -1}
	return slot.session
}

// done advances the player's buffer the way soda-loadgen's virtual players
// do: a download deposits one segment and drains for its transfer time, a
// wait drains for the advised time; the buffer stays within [0, cap].
func (s *churnStream) done(req *httpseg.DecideRequest, res *httpseg.DecideResult) {
	if res.Status != httpseg.StatusOK {
		return
	}
	buffer := float64(s.cur.buffer)
	segment := float64(s.ladder.SegmentSeconds)
	if res.Rung >= 0 {
		buffer += segment - res.BitrateMbps*segment/max(float64(req.Throughput), 0.1)
	} else {
		buffer -= res.WaitSeconds
	}
	s.cur.buffer = units.Seconds(min(max(buffer, 0), float64(s.cur.cap)))
}

func runServeSteady(c runConfig) (*outcome, error) { return runServe(c, false, steadySizes(c)) }
func runServeChurn(c runConfig) (*outcome, error)  { return runServe(c, true, churnSizes(c)) }

func runServe(c runConfig, churn bool, sz serveSizes) (*outcome, error) {
	if c.traced {
		return runServeTraced(c, churn, sz)
	}
	repeats := setupRepeats
	if c.small {
		repeats = 1
	}
	inst, setupS, err := buildRepeated(repeats, func() (*serveInstance, error) {
		return buildServe(churn, sz, c.seed, 0)
	}, nil)
	if err != nil {
		return nil, err
	}
	open := openLoop(inst.target, sz.open, sz.rate, c.seed)
	closed := closedLoop(inst.target, sz.closed, closedWindow)
	heap := heapMB()
	attempted := sz.open + sz.closed
	failed := open.failed + closed.failed
	lag := sortedCopy(open.lag)
	service := quietService(open)
	o := &outcome{
		attempted: int64(attempted), failed: int64(failed),
		values: map[string]float64{
			"setup_s":         setupS,
			"decisions_per_s": closed.quietRate(),
			"decide_p50_us":   float64(nearestRank(service, 0.50)) / 1e3,
			"decide_p99_us":   float64(nearestRank(service, 0.99)) / 1e3,
			"served_pct":      pct(float64(attempted-failed), float64(attempted)),
			"heap_mb":         heap,
			"qoe_score":       servedQoE(inst.ladder, inst.target.log),
		},
		diag: map[string]float64{
			"lag_p50_us":   float64(nearestRank(lag, 0.50)) / 1e3,
			"achieved_pct": open.achievedPct,
		},
		checkErr: firstErr(checkReplay(inst.ladder, inst.target.log), checkChurnInvariants(churn, inst)),
	}
	return o, nil
}

// runServeTraced measures the per-layer metrics. An open-loop phase on a
// service wired exactly as in the untraced run gives the tracing baseline;
// a second, identically built service whose flight-recorder rings hold every
// request of an equal traced phase gives the stage spans.
func runServeTraced(c runConfig, churn bool, sz serveSizes) (*outcome, error) {
	n := sz.open
	baseP50, baseFailed, checkBase, err := serveBaseline(churn, sz, c.seed, n)
	if err != nil {
		return nil, err
	}
	compileS, err := timeTableCompile(churn)
	if err != nil {
		return nil, err
	}
	spans := 1
	for spans < n {
		spans <<= 1
	}
	inst, err := buildServe(churn, sz, c.seed, spans)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the baseline service is garbage now
	tbl0, sess0, lat0, lat0n := collectorCounters(inst.col), inst.svc.SessionStats(), inst.col.Latency.Sum(), inst.col.Latency.Count()
	rt0 := readRuntime()
	run := openLoop(inst.target, n, sz.rate, c.seed)
	rt1 := readRuntime()
	tbl1, sess1 := collectorCounters(inst.col), inst.svc.SessionStats()
	decisions := float64(n - run.failed)

	v, err := stageMetrics(inst.flight, n, run.service)
	if err != nil {
		return nil, err
	}
	d := tbl1.sub(tbl0)
	setCoreCounters(v, d.solveStats(), decisions)
	v["core.decide_ns"] = 1e9 * ratio(inst.col.Latency.Sum()-lat0, float64(inst.col.Latency.Count()-lat0n))
	v["core.table_compile_s"] = compileS
	v["tracegen.synth_s"] = inst.synthS
	v["sessiontable.creates_per_decision"] = ratio(float64(sess1.Created-sess0.Created), decisions)
	v["sessiontable.evictions_per_decision"] = ratio(float64(sess1.EvictedIdle-sess0.EvictedIdle), decisions)
	v["sessiontable.rejected_capacity"] = float64(sess1.RejectedCapacity - sess0.RejectedCapacity)
	setRuntime(v, rt0, rt1, decisions)
	lag, sched := sortedCopy(run.lag), sortedCopy(run.sched)
	v["driver.lag_p50_us"] = float64(nearestRank(lag, 0.50)) / 1e3
	v["driver.lag_p99_us"] = float64(nearestRank(lag, 0.99)) / 1e3
	v["driver.sched_p99_us"] = float64(nearestRank(sched, 0.99)) / 1e3
	v["driver.achieved_pct"] = run.achievedPct
	p50 := float64(nearestRank(quietService(run), 0.50))
	v["trace.overhead_pct"] = 100 * (p50 - baseP50) / baseP50
	setZero(v, "predictor.ns_per_decision", "sim.run_self_ns_per_decision",
		"sim.fleet_advance_ms", "sim.fleet_waits_per_decision", "sim.fleet_stall_s_per_session_hour",
		"arena.high_water", "arena.slabs", "arena.bytes_per_session")
	return &outcome{
		values: v, attempted: int64(2 * n), failed: int64(baseFailed + run.failed),
		checkErr: firstErr(checkBase, checkReplay(inst.ladder, inst.target.log),
			checkChurnInvariants(churn, inst)),
	}, nil
}

// serveBaseline runs the untraced open-loop phase of a traced run and
// returns its median service time (quiet windows, as decide_p50_us), its
// rejections and its correctness check.
func serveBaseline(churn bool, sz serveSizes, seed uint64, n int) (p50NS float64, failed int, checkErr, err error) {
	inst, err := buildServe(churn, sz, seed, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	run := openLoop(inst.target, n, sz.rate, seed)
	return float64(nearestRank(quietService(run), 0.50)), run.failed,
		firstErr(checkReplay(inst.ladder, inst.target.log), checkChurnInvariants(churn, inst)), nil
}

// openWindow is how many consecutive open-loop requests form one window of
// the quiet-window timing: 1-3 ms at the offered rates.
const openWindow = 64

// quietService returns an open-loop phase's service times (ns) in its
// quietest windows, sorted for nearestRank.
func quietService(s loopStats) []int64 {
	return sortedCopy(quietWindows(s.service, openWindow))
}

// timeTableCompile compiles, into a fresh table set, the tables the workload's
// service compiles (eagerly at start for the 20 s default cap, lazily on first
// bind for the other caps) and returns the seconds it took.
func timeTableCompile(churn bool) (float64, error) {
	ladder, caps := video.YouTube4K(), []units.Seconds{20}
	if churn {
		ladder, caps = video.Prototype(), churnCaps[:]
	}
	cfg := core.DefaultConfig()
	cfg.TableQuantum = serveTableQuantum
	cfg.DecisionTable = core.NewDecisionTables()
	start := time.Now()
	for _, bufferCap := range caps {
		if _, err := cfg.DecisionTable.CompileTable(cfg, ladder, bufferCap); err != nil {
			return 0, fmt.Errorf("compiling decision table: %w", err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// checkChurnInvariants confirms the churn sizing held: nothing was rejected,
// and every session created after the warm-up reclaimed exactly one retired
// entry (the table stayed full).
func checkChurnInvariants(churn bool, inst *serveInstance) error {
	if !churn {
		return nil
	}
	st, w := inst.svc.SessionStats(), inst.warmed
	if st.RejectedCapacity != 0 {
		return fmt.Errorf("serve-churn: %d sessions rejected at capacity", st.RejectedCapacity)
	}
	if created, evicted := st.Created-w.Created, st.EvictedIdle-w.EvictedIdle; created != evicted {
		return fmt.Errorf("serve-churn: %d sessions created but %d reclaimed after the warm-up", created, evicted)
	}
	return nil
}

// counterSet is a snapshot of the collector's solver counters.
type counterSet [9]float64

func collectorCounters(c *telemetry.Collector) counterSet {
	return counterSet{c.Solves.Value(), c.Nodes.Value(), c.MemoLookups.Value(), c.MemoHits.Value(),
		c.SharedLookups.Value(), c.SharedHits.Value(), c.TableLookups.Value(), c.TableHits.Value(),
		c.TableFallbacks.Value()}
}

func (a counterSet) sub(b counterSet) counterSet {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counterSet) solveStats() core.SolveStats {
	return core.SolveStats{Solves: uint64(a[0]), Nodes: uint64(a[1]), MemoLookups: uint64(a[2]),
		MemoHits: uint64(a[3]), SharedLookups: uint64(a[4]), SharedHits: uint64(a[5]),
		TableLookups: uint64(a[6]), TableHits: uint64(a[7]), TableFallbacks: uint64(a[8])}
}

// stageOrder is the admission order of the spans one request records before
// its respond span.
var stageOrder = [...]flightrec.Stage{flightrec.StageRateLimit, flightrec.StageInflight,
	flightrec.StageSession, flightrec.StageArena, flightrec.StageDecide}

// stageMetrics turns the recorder's last n requests into per-stage self
// times. Every request must have one span per stage, the stages must follow
// each other inside the request's respond span, and the post-admission
// stages must name the respond span's session; post is what respond spends
// outside the stages (the in-flight release and the telemetry tail). outer
// is the driver's own span around each Decide call.
func stageMetrics(rec *flightrec.Recorder, n int, outer []int64) (map[string]float64, error) {
	if rec.Dropped() != 0 {
		return nil, fmt.Errorf("flight recorder dropped %d spans", rec.Dropped())
	}
	var by [flightrec.NumStages][]flightrec.Span
	for _, sp := range rec.Snapshot() {
		by[sp.Stage] = append(by[sp.Stage], sp)
	}
	for s := range by {
		if len(by[s]) < n {
			return nil, fmt.Errorf("stage %s holds %d spans, want %d", flightrec.Stage(s), len(by[s]), n)
		}
		by[s] = by[s][len(by[s])-n:]
	}
	var sum [len(stageOrder)]float64
	var post, respond, outerSum float64
	sessionDur, decideDur := make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		r := by[flightrec.StageRespond][i]
		if !r.OK {
			return nil, fmt.Errorf("request %d: respond span not ok", i)
		}
		cursor, self := r.Start, r.Dur
		for k, stage := range stageOrder {
			sp := by[stage][i]
			if sp.Start < cursor || sp.Start+sp.Dur > r.Start+r.Dur {
				return nil, fmt.Errorf("request %d: %s span [%d,+%d] outside respond [%d,+%d] or overlapping the previous stage",
					i, stage, sp.Start, sp.Dur, r.Start, r.Dur)
			}
			if k >= 2 && sp.Session != r.Session {
				return nil, fmt.Errorf("request %d: %s span names session %d, respond %d", i, stage, sp.Session, r.Session)
			}
			cursor = sp.Start + sp.Dur
			self -= sp.Dur
			sum[k] += float64(sp.Dur)
		}
		post += float64(self)
		respond += float64(r.Dur)
		outerSum += float64(outer[i])
		sessionDur[i], decideDur[i] = by[flightrec.StageSession][i].Dur, by[flightrec.StageDecide][i].Dur
	}
	fn := float64(n)
	v := map[string]float64{
		"httpseg.post_ns":        post / fn,
		"httpseg.respond_ns":     respond / fn,
		"httpseg.session_p99_ns": float64(nearestRank(sortedCopy(sessionDur), 0.99)),
		"httpseg.decide_p99_ns":  float64(nearestRank(sortedCopy(decideDur), 0.99)),
		// The driver's span around Decide should exceed respond only by the
		// call and the clock reads on either side.
		"trace.span_gap_pct": 100 * (outerSum - respond) / outerSum,
	}
	for k, stage := range stageOrder {
		v["httpseg."+stage.String()+"_ns"] = sum[k] / fn
	}
	if gap := v["trace.span_gap_pct"]; math.Abs(gap) > 10 {
		fmt.Fprintf(os.Stderr, "warning: driver span around Decide differs from the respond span by %.1f%%\n", gap)
	}
	return v, nil
}

// checkReplay replays the sampled sessions' recorded exchanges, serially and
// in order, through a bare controller and the serving path's per-session
// bookkeeping, and requires the recorded segment, rung and wait on every
// request. A change of server session id for one stream session (an eviction
// and recreation) starts a fresh reference session, as the server does. The
// reference shares no layer with the service — no table, no shared cache, a
// one-entry memo flushed before every decision — but solves at the same
// quantized state the table-backed controllers do.
func checkReplay(ladder video.Ladder, log []exchange) error {
	type refSession struct {
		id             int64
		prev, segments int
	}
	sessions := map[int32]*refSession{}
	ctrls := map[units.Seconds]*core.Controller{}
	for i, e := range log {
		if e.status != httpseg.StatusOK {
			return fmt.Errorf("replay: exchange %d of session %d rejected (status %d)", i, e.session, e.status)
		}
		rs := sessions[e.session]
		if rs == nil || rs.id != e.id {
			rs = &refSession{id: e.id, prev: abr.NoRung}
			sessions[e.session] = rs
		}
		ctrl := ctrls[e.cap]
		if ctrl == nil {
			cfg := core.DefaultConfig()
			cfg.SolveMemoSize, cfg.MemoQuantum = 1, serveTableQuantum
			ctrl = core.New(cfg, ladder)
			ctrls[e.cap] = ctrl
		}
		ctrl.Reset()
		thr := e.thr
		d := ctrl.Decide(&abr.Context{
			Buffer: e.buffer, BufferCap: e.cap, PrevRung: rs.prev, Ladder: ladder,
			SegmentIndex: rs.segments, TotalSegments: 1 << 20, LastThroughput: thr,
			Predict: func(units.Seconds) units.Mbps { return thr },
		})
		rung, wait := d.Rung, 0.0
		if d.Rung == abr.NoRung {
			wait = float64(d.WaitSeconds)
		} else {
			rung = ladder.ClampIndex(d.Rung)
		}
		if int(e.segment) != rs.segments || int(e.rung) != rung || e.wait != wait {
			return fmt.Errorf("replay: session %d exchange %d: served segment %d rung %d wait %v, reference segment %d rung %d wait %v",
				e.session, i, e.segment, e.rung, e.wait, rs.segments, rung, wait)
		}
		if rung != abr.NoRung {
			rs.prev = rung
			rs.segments++
		}
	}
	return nil
}

// servedQoE is the mean QoE score of the sampled sessions' served rung
// streams: mean log utility minus the switching rate. The requests carry no
// playback, so there is no rebuffering term.
func servedQoE(ladder video.Ladder, log []exchange) float64 {
	type key struct {
		session int32
		id      int64
	}
	tallies := map[key]*qoe.SessionTally{}
	var order []key
	for _, e := range log {
		if e.rung < 0 {
			continue
		}
		k := key{e.session, e.id}
		t := tallies[k]
		if t == nil {
			t = &qoe.SessionTally{}
			tallies[k] = t
			order = append(order, k)
		}
		t.AddSegment(int(e.rung), ladder.LogUtility(int(e.rung)))
	}
	var sum float64
	for _, k := range order {
		sum += tallies[k].Finalize(qoe.DefaultWeights()).Score
	}
	return ratio(sum, float64(len(order)))
}
