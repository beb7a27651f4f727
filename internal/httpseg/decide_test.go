package httpseg

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/video"
)

func decideGet(t *testing.T, svc *DecideService, query string) decideReply {
	t.Helper()
	rw := httptest.NewRecorder()
	svc.ServeHTTP(rw, httptest.NewRequest("GET", "/decide?"+query, nil))
	if rw.Code != 200 {
		t.Fatalf("GET /decide?%s = %d: %s", query, rw.Code, rw.Body.String())
	}
	var reply decideReply
	if err := json.Unmarshal(rw.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply does not parse: %v", err)
	}
	return reply
}

func decideStatus(t *testing.T, svc *DecideService, query string) (int, string) {
	t.Helper()
	rw := httptest.NewRecorder()
	svc.ServeHTTP(rw, httptest.NewRequest("GET", "/decide?"+query, nil))
	return rw.Code, rw.Header().Get("Retry-After")
}

func TestDecideServiceSessions(t *testing.T) {
	col := telemetry.NewCollector(nil, 256)
	svc, err := NewDecideService(video.Mobile(), DecideOptions{CacheEntries: 1 << 12}, col)
	if err != nil {
		t.Fatal(err)
	}

	// A healthy session: ample throughput and a full buffer climbs the ladder.
	var last decideReply
	for i := 0; i < 12; i++ {
		last = decideGet(t, svc, "session=a&buffer=18&throughput=40")
	}
	if last.Rung <= 0 {
		t.Errorf("rich session stuck at rung %d", last.Rung)
	}
	if last.BitrateMbps <= 0 {
		t.Errorf("reply bitrate = %g, want > 0", last.BitrateMbps)
	}

	// A starved session stays low and must not inherit session a's state.
	poor := decideGet(t, svc, "session=b&buffer=0.5&throughput=0.4")
	if poor.Rung > 0 && poor.WaitSeconds == 0 {
		t.Errorf("starved fresh session picked rung %d", poor.Rung)
	}
	if poor.Session == last.Session {
		t.Error("distinct session keys share an id")
	}

	// Segment indices advance per session on downloads.
	next := decideGet(t, svc, "session=a&buffer=18&throughput=40")
	if next.Segment != last.Segment+1 {
		t.Errorf("segment advanced %d -> %d, want +1", last.Segment, next.Segment)
	}

	// Telemetry saw every decision, from the call site.
	if got := col.Decisions.Value(); got < 14 {
		t.Errorf("collector decisions = %g, want >= 14", got)
	}
	if got := col.Solves.Value(); got == 0 {
		t.Error("collector saw no solver work")
	}
	if got := svc.decideLatency.Count(); got < 14 {
		t.Errorf("decide latency histogram count = %d, want >= 14", got)
	}
	svc.RefreshMetrics()
	if got := svc.liveSessions.Value(); got != 2 {
		t.Errorf("live sessions gauge = %g, want 2", got)
	}
	if got := svc.cacheCapacity.Value(); got == 0 {
		t.Error("cache capacity gauge not populated")
	}
}

func TestDecideServiceValidation(t *testing.T) {
	for _, opts := range []DecideOptions{{}, {TableQuantum: 0.5}} {
		svc, err := NewDecideService(video.Mobile(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range []string{
			"",                                           // missing session
			"session=a",                                  // missing buffer/throughput
			"session=a&buffer=-1&throughput=5",           // negative buffer
			"session=a&buffer=5&throughput=bogus",        // non-numeric
			"session=a&buffer=5&throughput=5&cap=0",      // non-positive cap
			"session=a&buffer=5&throughput=5&cap=1",      // cap below one 2 s segment
			"session=a&buffer=0&throughput=5&cap=0.001",  // likewise
			"session=a&buffer=5&throughput=5&prev=99",    // prev out of range
			"session=a&buffer=5&throughput=5&segment=-1", // negative segment
			// Past the documented bounds: a silent model, not a decision.
			"session=a&buffer=600.001&throughput=5",
			"session=a&buffer=5&throughput=1000001",
			"session=a&buffer=5&throughput=5&cap=600.001",
			"session=a&buffer=5&throughput=5&cap=1e12",
			"session=a&buffer=5&throughput=5&segment=1073741825",
			"session=a&buffer=5&throughput=5&segment=2147483648", // wrapped to -2^31
			"session=a&buffer=5&throughput=5&segment=4294967296", // wrapped to 0
		} {
			rw := httptest.NewRecorder()
			svc.ServeHTTP(rw, httptest.NewRequest("GET", "/decide?"+query, nil))
			if rw.Code != 400 {
				t.Errorf("tables %v: GET /decide?%s = %d, want 400", opts.TableQuantum > 0, query, rw.Code)
			}
		}
		rw := httptest.NewRecorder()
		svc.ServeHTTP(rw, httptest.NewRequest("POST", "/decide?session=a&buffer=5&throughput=5", nil))
		if rw.Code != 405 {
			t.Errorf("POST = %d, want 405", rw.Code)
		}
	}
	// One segment exactly is the smallest cap that can download.
	svc, err := NewDecideService(video.Mobile(), DecideOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply := decideGet(t, svc, "session=a&buffer=0&throughput=5&cap=2"); reply.Rung < 0 {
		t.Errorf("cap of one segment: %+v, want a download", reply)
	}
	// Every bound itself is accepted.
	if reply := decideGet(t, svc, "session=b&buffer=600&throughput=1e6&cap=600&segment=1073741824"); reply.Segment != 1<<30 {
		t.Errorf("inputs at their bounds: %+v, want a decision at segment 2^30", reply)
	}
}

// TestDecideServiceRejectsNonFinite: a NaN or infinite buffer, throughput or
// cap is a 400, never a decision — let through, it poisoned the histogram
// sums, broke the reply encoding or bound a table identity. So is a finite
// value at overflow scale: ω̂·Δt overflowed to +Inf, and 8e307 and 1e308
// answered different rungs.
func TestDecideServiceRejectsNonFinite(t *testing.T) {
	for _, opts := range []DecideOptions{{}, {TableQuantum: 0.5}} {
		col := telemetry.NewCollector(nil, 16)
		svc, err := NewDecideService(video.Mobile(), opts, col)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "1e999", "-1e999",
			"8e307", "1e308", "0x1p1023", "1.7976931348623157e308"} {
			v := url.QueryEscape(bad)
			for _, query := range []string{
				"session=a&buffer=" + v + "&throughput=5",
				"session=a&buffer=5&throughput=" + v,
				"session=a&buffer=5&throughput=5&cap=" + v,
			} {
				if code, _ := decideStatus(t, svc, query); code != 400 {
					t.Errorf("tables %v: GET /decide?%s = %d, want 400", opts.TableQuantum > 0, query, code)
				}
			}
		}
		if got := col.Decisions.Value(); got != 0 {
			t.Errorf("tables %v: %g decisions recorded from rejected requests", opts.TableQuantum > 0, got)
		}
		if svc.tables != nil {
			if got := svc.tables.Stats().Tables; got != 1 {
				t.Errorf("%d decision tables bound, want only the default cap's", got)
			}
		}
	}
}

// TestDecideServiceCapChangeCounters: a session that changes cap= rebuilds
// its controller's cost model, and the solver counters the service records
// must still only go up — the per-decision delta used to wrap to ~2^64.
func TestDecideServiceCapChangeCounters(t *testing.T) {
	col := telemetry.NewCollector(nil, 64)
	svc, err := NewDecideService(video.YouTube4K(), DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5}, col)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, capSeconds := range []int{30, 30, 30, 20, 20, 30} {
		// 500 Mb/s is off the tables' throughput grid, so the solver runs.
		decideGet(t, svc, fmt.Sprintf("session=a&buffer=%g&throughput=500&cap=%d", 4+1.3*float64(i), capSeconds))
		got := col.Solves.Value()
		if got <= prev || got > 1e6 {
			t.Fatalf("step %d (cap %d): soda_solver_solves_total went from %g to %g", i, capSeconds, prev, got)
		}
		prev = got
	}
	for _, ev := range col.Ring.Snapshot() {
		if ev.Solves == 0 || ev.Solves > 1000 || ev.Nodes > 1e6 {
			t.Errorf("segment %d recorded %d solves, %d nodes", ev.Segment, ev.Solves, ev.Nodes)
		}
	}
}

// TestDecideServiceRejectsInvalidTableQuantum: the session policy is
// validated once, when the service is built, so a table quantum no
// controller could plan at is a construction error rather than a panic on
// the first session.
func TestDecideServiceRejectsInvalidTableQuantum(t *testing.T) {
	for _, q := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewDecideService(video.Prototype(), DecideOptions{TableQuantum: q}, nil); err == nil {
			t.Errorf("table quantum %g: service built, want an error", q)
		}
	}
}

// TestDecideServiceSessionCeiling pins what one more /decide session costs
// the server: its session-table entry, which holds the session's controller
// seated on the service's one policy, its share of the table's key index,
// and nothing else on the heap. The first Decide binds the compiled table's
// cost parameters, so a session costs the same at a table hit (30 Mb/s) and
// at a fallback that runs the solver (500 Mb/s, beyond twice the top rung).
// It allocates about 210 B; the 256 B ceiling fails a controller that
// carries its own copy of the configuration and the ladder (about 380 B).
func TestDecideServiceSessionCeiling(t *testing.T) {
	for _, tc := range []struct {
		name       string
		throughput units.Mbps
	}{{"table-hit", units.Mbps(30)}, {"fallback", units.Mbps(500)}} {
		t.Run(tc.name, func(t *testing.T) {
			newSessionBytes := func(sessions int) uint64 {
				svc, err := NewDecideService(video.YouTube4K(), DecideOptions{TableQuantum: 0.5}, nil)
				if err != nil {
					t.Fatal(err)
				}
				reqs := make([]DecideRequest, sessions)
				for i := range reqs {
					reqs[i] = DecideRequest{Session: fmt.Sprintf("s-%d", i), Buffer: units.Seconds(11),
						Throughput: tc.throughput, Segment: -1}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := range reqs {
					if res := svc.Decide(&reqs[i]); res.Status != StatusOK {
						t.Fatalf("session %d: status %d", i, res.Status)
					}
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			small, large := newSessionBytes(1000), newSessionBytes(4000)
			perSession := (int64(large) - int64(small)) / 3000
			if perSession > 256 {
				t.Errorf("each new session past 1000 allocates %d B, want at most 256", perSession)
			}
			t.Logf("%d B per session", perSession)
		})
	}
}

// TestDecideServiceSharedCacheWithinQuantum: every session plans at its
// quantum — the core default's MemoQuantum with tables off, the table
// quantum with them on — so a second session whose state lies within one
// quantum of the first's asks the shared cache for the same key and is
// answered there without a solve, while a state a quantum away still solves.
func TestDecideServiceSharedCacheWithinQuantum(t *testing.T) {
	for _, tc := range []struct {
		name             string
		quantum          float64
		first, near, far string
	}{
		{"no-tables", 0, "buffer=7.001&throughput=11.002", "buffer=7.003&throughput=10.998", "buffer=7.02&throughput=11.002"},
		// 500 Mb/s is off the tables' grid, so every lookup falls back.
		{"tables", 0.5, "buffer=7.01&throughput=500.1", "buffer=7.2&throughput=499.8", "buffer=7.3&throughput=500.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := telemetry.NewCollector(nil, 16)
			svc, err := NewDecideService(video.Mobile(), DecideOptions{CacheEntries: 1 << 10, TableQuantum: tc.quantum}, col)
			if err != nil {
				t.Fatal(err)
			}
			first := decideGet(t, svc, "session=a&"+tc.first)
			for _, step := range []struct {
				query  string
				solves bool
			}{{"session=b&" + tc.near, false}, {"session=c&" + tc.far, true}} {
				solves, hits := col.Solves.Value(), col.SharedHits.Value()
				reply := decideGet(t, svc, step.query)
				solved := col.Solves.Value() > solves
				if solved != step.solves {
					t.Errorf("%s: solved = %v, want %v", step.query, solved, step.solves)
				}
				if hit := col.SharedHits.Value() == hits+1; hit == solved {
					t.Errorf("%s: shared hits %g -> %g with solved = %v", step.query, hits, col.SharedHits.Value(), solved)
				}
				if !step.solves && reply.Rung != first.Rung {
					t.Errorf("%s: rung %d, want the first session's %d", step.query, reply.Rung, first.Rung)
				}
			}
		})
	}
}

// TestSessionTableConformance is the lifecycle bit-identity contract: the
// session table manages lifecycle only, never solver inputs, so a service
// whose sessions are evicted and recreated between every request decides
// exactly like one whose sessions live forever — provided the client carries
// its own state (prev, segment), which is precisely what the table does not
// own. Any divergence means lifecycle leaked into the decision path.
func TestSessionTableConformance(t *testing.T) {
	ladders := map[string]video.Ladder{"mobile": video.Mobile(), "prototype": video.Prototype()}
	for name, ladder := range ladders {
		t.Run(name, func(t *testing.T) {
			longLived, err := NewDecideService(ladder, DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// One-session capacity with an aggressive TTL: every new session
			// key forces eviction of the previous one, and the sweep below
			// empties the table between requests.
			churny, err := NewDecideService(ladder, DecideOptions{
				CacheEntries: 1 << 10, TableQuantum: 0.5,
				MaxSessions: 2, SessionTTL: time.Nanosecond,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}

			prev := -1
			segment := 0
			for i := 0; i < 200; i++ {
				// A deterministic walk over buffer x throughput, including
				// out-of-table-domain throughputs (solver fallbacks).
				buffer := float64(i%23) * 0.9
				throughput := 0.3 + float64((i*7)%31)*0.5
				req := func() *DecideRequest {
					return &DecideRequest{
						Session:    fmt.Sprintf("s%d", i), // fresh key every request on both services
						Buffer:     units.Seconds(buffer),
						Throughput: units.Mbps(throughput),
						Segment:    segment,
						Prev:       prev,
						HavePrev:   true,
					}
				}
				a := longLived.Decide(req())
				b := churny.Decide(req())
				if a.Status != StatusOK || b.Status != StatusOK {
					t.Fatalf("step %d: status %d vs %d", i, a.Status, b.Status)
				}
				if a.Rung != b.Rung || a.WaitSeconds != b.WaitSeconds {
					t.Fatalf("step %d (buffer=%.1f throughput=%.1f prev=%d): long-lived rung %d (wait %g) != churny rung %d (wait %g)",
						i, buffer, throughput, prev, a.Rung, a.WaitSeconds, b.Rung, b.WaitSeconds)
				}
				if a.Rung >= 0 {
					prev = a.Rung
					segment++
				}
				// Aggressive sweep so the churny table really evicts.
				churny.SweepSessions(time.Now().Add(time.Second))
			}
			if st := churny.SessionStats(); st.EvictedIdle == 0 {
				t.Fatal("churny service never evicted — the conformance run did not exercise recreation")
			}
		})
	}
}

// TestRecreatedSessionStartsFresh: a session that left its history to the
// server (no prev= or segment=) and was swept out comes back as a new
// session — a new id, segment 0, and the rung and wait a fresh service gives
// the same request. Nothing of the evicted session's controller, previous
// rung or segment index survives into its successor.
func TestRecreatedSessionStartsFresh(t *testing.T) {
	opts := DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5, SessionTTL: time.Minute}
	svc, err := NewDecideService(video.Mobile(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var old decideReply
	for i := 0; i < 6; i++ {
		old = decideGet(t, svc, "session=a&buffer=18&throughput=40")
	}
	if old.Segment == 0 || old.Rung <= 0 {
		t.Fatalf("session a built no history: segment %d, rung %d", old.Segment, old.Rung)
	}
	if n := svc.SweepSessions(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}

	const probe = "session=a&buffer=4&throughput=3"
	got := decideGet(t, svc, probe)
	fresh, err := NewDecideService(video.Mobile(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := decideGet(t, fresh, probe)
	if got.Session == old.Session {
		t.Errorf("recreated session kept id %d", got.Session)
	}
	if got.Segment != 0 || got.Rung != want.Rung || got.WaitSeconds != want.WaitSeconds {
		t.Errorf("recreated session: segment %d rung %d wait %g, fresh service: segment %d rung %d wait %g",
			got.Segment, got.Rung, got.WaitSeconds, want.Segment, want.Rung, want.WaitSeconds)
	}
	// The probe must be able to tell: the evicted session's history, passed
	// explicitly, changes the answer.
	stale := decideGet(t, fresh, fmt.Sprintf("session=b&buffer=4&throughput=3&prev=%d&segment=%d", old.Rung, old.Segment+1))
	if stale.Rung == want.Rung && stale.WaitSeconds == want.WaitSeconds {
		t.Fatalf("probe decides rung %d wait %g with or without the old history; it cannot detect a leak",
			want.Rung, want.WaitSeconds)
	}
}

// TestSessionChurnSteadyState is the unbounded-growth regression test for
// the old sessions/order/nextID maps: under client churn with periodic
// sweeps, the live session count stays bounded and evicted keys are gone.
func TestSessionChurnSteadyState(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{
		MaxSessions: 128,
		SessionTTL:  time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweepAt := time.Now()
	for i := 0; i < 5000; i++ {
		res := svc.Decide(&DecideRequest{
			Session:    fmt.Sprintf("churn-%d", i),
			Buffer:     units.Seconds(10),
			Throughput: units.Mbps(8),
			Segment:    -1,
		})
		if res.Status != StatusOK {
			t.Fatalf("churn request %d rejected: %d", i, res.Status)
		}
		if i%64 == 0 {
			sweepAt = sweepAt.Add(time.Second)
			svc.SweepSessions(sweepAt)
		}
	}
	if got := svc.SessionStats().Active; got > 128 {
		t.Fatalf("active sessions %d exceed the 128 cap under churn", got)
	}
	svc.SweepSessions(sweepAt.Add(time.Hour))
	if got := svc.SessionStats().Active; got != 0 {
		t.Fatalf("sessions leaked: %d still live after final sweep", got)
	}
	svc.RefreshMetrics()
	if got := svc.evictions.Value(); got == 0 {
		t.Error("eviction counter never moved")
	}
}

// TestDecideServiceEvictionMetricCountsReclaims pins that
// soda_server_evictions_total counts every eviction the session table makes,
// including the reclaims a full shard makes to admit a new session, which no
// sweep sees.
func TestDecideServiceEvictionMetricCountsReclaims(t *testing.T) {
	svc, err := NewDecideService(video.Prototype(), DecideOptions{
		MaxSessions: 1,
		SessionTTL:  time.Nanosecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res := svc.Decide(&DecideRequest{
			Session:    fmt.Sprintf("reclaim-%d", i),
			Buffer:     units.Seconds(10),
			Throughput: units.Mbps(1.5),
			Segment:    -1,
		})
		if res.Status != StatusOK {
			t.Fatalf("request %d rejected: %d", i, res.Status)
		}
	}
	evicted := svc.SessionStats().EvictedIdle
	if evicted == 0 {
		t.Fatal("no session was reclaimed: the run did not exercise a full shard")
	}
	svc.RefreshMetrics()
	if got := svc.evictions.Value(); got != float64(evicted) {
		t.Errorf("soda_server_evictions_total = %g, want the table's %d evictions", got, evicted)
	}
	// A second scrape with no new evictions moves nothing.
	svc.RefreshMetrics()
	if got := svc.evictions.Value(); got != float64(evicted) {
		t.Errorf("re-scrape moved soda_server_evictions_total to %g, want %d", got, evicted)
	}
}

// Honest sessions of the hostile-client tests: honestSessions sessions
// decide for honestRounds rounds, at the service's default buffer cap.
const (
	honestSessions = 4
	honestRounds   = 60
)

// honestReq is honest session h's request in one round.
func honestReq(h, round int) *DecideRequest {
	return &DecideRequest{
		Session: fmt.Sprintf("honest-%d", h),
		Buffer:  units.Seconds(float64((round*7+h*3)%19) * 0.9),
		// Every fifth round's throughput is off the tables' grid, so the
		// solver path runs too.
		Throughput: units.Mbps(0.4 + float64((round*5+h)%13)*0.7 + float64(round%5/4)*40),
		Segment:    -1,
	}
}

// runHonestAgainstIsolated is the harness of the hostile-client tests. It
// sends the honest sessions' requests, honest(h, round), to svc while
// hostile traffic runs against it, and fails unless every honest reply's
// rung, wait and segment equal those of isolated, a service that sees only
// the honest stream, and every honest session keeps its session id.
// Serially, hostile(round) runs after each honest round; concurrently, a
// second goroutine runs hostile for every round, starting once round 0 has
// admitted the honest sessions.
func runHonestAgainstIsolated(t *testing.T, svc, isolated *DecideService, concurrent bool,
	honest func(h, round int) *DecideRequest, hostile func(round int)) {
	t.Helper()
	var wg sync.WaitGroup
	start := make(chan struct{})
	if concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < honestRounds; round++ {
				hostile(round)
			}
		}()
	}
	ids := map[string]int64{}
	for round := 0; round < honestRounds; round++ {
		for h := 0; h < honestSessions; h++ {
			want := isolated.Decide(honest(h, round))
			got := svc.Decide(honest(h, round))
			key := fmt.Sprintf("honest-%d", h)
			if got.Status != StatusOK || want.Status != StatusOK {
				t.Fatalf("round %d %s: status %d (isolated %d)", round, key, got.Status, want.Status)
			}
			if id, seen := ids[key]; seen && id != got.SessionID {
				t.Fatalf("round %d: %s changed session id %d -> %d", round, key, id, got.SessionID)
			}
			ids[key] = got.SessionID
			if got.Rung != want.Rung || got.WaitSeconds != want.WaitSeconds || got.Segment != want.Segment {
				t.Fatalf("round %d %s: rung %d wait %g segment %d, isolated rung %d wait %g segment %d",
					round, key, got.Rung, got.WaitSeconds, got.Segment, want.Rung, want.WaitSeconds, want.Segment)
			}
		}
		if round == 0 {
			close(start) // the honest sessions are admitted; let the hostile traffic in
		}
		if !concurrent {
			hostile(round)
		}
	}
	wg.Wait()
}

// TestHostileSessionKeyChurn floods a full session table with fresh keys
// while honest sessions keep deciding, serially and from a second goroutine.
// With a 1 h TTL nothing ever expires, so once the table is full every fresh
// key is refused with StatusRejectedCapacity, and the rejection count is
// exact. The honest sessions keep their session ids, and their rungs, waits
// and segments equal those of an isolated service that sees only the honest
// stream: key churn at capacity can neither evict nor perturb a live session.
func TestHostileSessionKeyChurn(t *testing.T) {
	// 16 sessions per CPU: the table has one shard per CPU rounded up to a
	// power of two, so every shard holds at least 8 entries and the honest
	// sessions fit even if they all hash to one shard.
	opts := DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5,
		MaxSessions: 16 * runtime.GOMAXPROCS(0), SessionTTL: time.Hour}
	freshReq := func(n int) *DecideRequest {
		return &DecideRequest{Session: fmt.Sprintf("fresh-%d", n), Buffer: units.Seconds(5), Throughput: units.Mbps(3), Segment: -1}
	}
	for _, concurrent := range []bool{false, true} {
		name := "serial"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			isolated, err := NewDecideService(video.Mobile(), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewDecideService(video.Mobile(), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := svc.SessionStats()
			capacity := st.Shards * st.PerShardCapacity
			// 30 fresh keys per entry, spread over the rounds, fill every
			// shard many times over.
			flood := (30*capacity + honestRounds - 1) / honestRounds

			var sent, admitted, rejected int
			runHonestAgainstIsolated(t, svc, isolated, concurrent, honestReq, func(round int) {
				for i := 0; i < flood; i++ {
					n := round*flood + i
					full := svc.SessionStats().Active == capacity
					res := svc.Decide(freshReq(n))
					sent++
					switch res.Status {
					case StatusOK:
						admitted++
						if !concurrent && full {
							t.Errorf("fresh key %d admitted into a full table", n)
						}
					case StatusRejectedCapacity:
						rejected++
					default:
						t.Errorf("fresh key %d: status %d", n, res.Status)
					}
				}
			})

			if sent != honestRounds*flood {
				t.Fatalf("sent %d fresh keys, want %d", sent, honestRounds*flood)
			}
			if admitted != capacity-honestSessions {
				t.Errorf("%d fresh keys admitted, want the %d free entries", admitted, capacity-honestSessions)
			}
			if want := float64(rejected); rejected != sent-admitted || svc.rejectedCapacity.Value() != want ||
				svc.SessionStats().RejectedCapacity != uint64(rejected) {
				t.Errorf("rejected %d of %d fresh keys; rejected{capacity} = %g, table count %d",
					rejected, sent, svc.rejectedCapacity.Value(), svc.SessionStats().RejectedCapacity)
			}
			if st := svc.SessionStats(); st.Active != capacity || st.EvictedIdle != 0 {
				t.Errorf("table stats %+v, want full (%d) with no evictions", st, capacity)
			}
		})
	}
}

// TestDecideServiceHostileCapChurn runs one hostile session through the
// in-process Decide, which has none of ServeHTTP's bounds, against honest
// sessions, serially and from a second goroutine. Each round the hostile
// session reports a buffer above its cap, two caps it never used before and
// the overflow throughputs 8e307 and 1e308, at its own caps and at the
// default cap the honest sessions start on. The fresh caps fill the
// 64-identity table budget in the first 32 rounds, so every later cap gets
// a stub. The honest sessions move to caps of their own (one per honest
// session) only after that, so in the serial pass they get stubs on the
// hostile service, while the isolated service compiles them. All sessions share one
// controller policy, table set and solve cache, yet the honest rungs, waits
// and segments equal the isolated service's: neither the hostile session's
// caps, its table bindings nor its overflow decisions move another
// session's decisions. The Prototype ladder's tables compile in
// milliseconds.
func TestDecideServiceHostileCapChurn(t *testing.T) {
	ladder := video.Prototype()
	opts := DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5}
	// Honest sessions bind their own cap from round budgetRounds on; in the
	// serial pass the hostile session has filled the table budget by then.
	const capsPerRound, budgetRounds = 2, core.DefaultMaxTables/2 + 1
	honest := func(h, round int) *DecideRequest {
		req := honestReq(h, round)
		if round >= budgetRounds {
			req.BufferCap = units.Seconds(12 + h)
		}
		return req
	}
	for _, concurrent := range []bool{false, true} {
		name := "serial"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			isolated, err := NewDecideService(ladder, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewDecideService(ladder, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			var served int
			hostile := func(round int) {
				if !concurrent && round == budgetRounds-1 {
					if st := svc.tables.Stats(); st.Tables != core.DefaultMaxTables {
						t.Errorf("before round %d's hostile requests the set holds %d tables, want the budget's %d",
							round, st.Tables, core.DefaultMaxTables)
					}
				}
				// Fresh caps that are never whole seconds, so they never
				// meet the default cap or an honest session's.
				cap0 := units.Seconds(10.3 + float64(round)/capsPerRound)
				reqs := []DecideRequest{
					{Buffer: cap0 + 7, BufferCap: cap0, Throughput: units.Mbps(1.3)},
					{Buffer: units.Seconds(5), BufferCap: cap0, Throughput: units.Mbps(8e307)},
					{Buffer: units.Seconds(5), BufferCap: cap0 + 0.25, Throughput: units.Mbps(1e308)},
					{Buffer: units.Seconds(4), Throughput: units.Mbps(8e307)},
					{Buffer: units.Seconds(4), Throughput: units.Mbps(1e308)},
				}
				for i := range reqs {
					req := &reqs[i]
					req.Session, req.Segment = "hostile", -1
					res := svc.Decide(req)
					switch {
					case res.Status != StatusOK:
						t.Errorf("round %d hostile request %d: status %d", round, i, res.Status)
					case i == 0 && !(res.WaitSeconds > 0):
						t.Errorf("round %d: buffer above the cap answered rung %d, want a wait", round, res.Rung)
					case i > 0 && (res.Rung < 0 || res.Rung >= ladder.Len()):
						t.Errorf("round %d hostile request %d: rung %d off the ladder", round, i, res.Rung)
					default:
						served++
					}
				}
			}
			runHonestAgainstIsolated(t, svc, isolated, concurrent, honest, hostile)
			if served != 5*honestRounds {
				t.Fatalf("served %d hostile requests, want %d", served, 5*honestRounds)
			}
			st := svc.tables.Stats()
			if st.Tables != core.DefaultMaxTables || st.Stubs == 0 {
				t.Errorf("hostile table set %s, want the %d-table budget full and stub bindings", st, core.DefaultMaxTables)
			}
			if st := isolated.tables.Stats(); st.Tables != 1+honestSessions || st.Stubs != 0 {
				t.Errorf("isolated table set %s, want the default cap and %d honest caps compiled", st, honestSessions)
			}
		})
	}
}

func TestDecideServiceRateLimit(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{
		RPSPerClient: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := "session=a&client=c1&buffer=10&throughput=8"
	for i := 0; i < 2; i++ {
		if code, _ := decideStatus(t, svc, q); code != 200 {
			t.Fatalf("burst request %d = %d, want 200", i, code)
		}
	}
	code, retry := decideStatus(t, svc, q)
	if code != 429 {
		t.Fatalf("post-burst request = %d, want 429", code)
	}
	if retry == "" || retry == "0" {
		t.Fatalf("429 Retry-After = %q, want >= 1s", retry)
	}
	// A different client is not throttled by c1's spend.
	if code, _ := decideStatus(t, svc, "session=b&client=c2&buffer=10&throughput=8"); code != 200 {
		t.Fatalf("second client = %d, want 200", code)
	}
	if got := svc.rejectedRate.Value(); got != 1 {
		t.Errorf("rejected{ratelimit} = %g, want 1", got)
	}
}

func TestDecideServiceCapacityShed(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{MaxSessions: 2, SessionTTL: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// MaxSessions 2 with no TTL: the third distinct session is shed.
	shed := 0
	for i := 0; i < 8; i++ {
		code, _ := decideStatus(t, svc, fmt.Sprintf("session=s%d&buffer=10&throughput=8", i))
		if code == 503 {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no request shed at capacity")
	}
	if got := svc.rejectedCapacity.Value(); got != float64(shed) {
		t.Errorf("rejected{capacity} = %g, want %d", got, shed)
	}
}

func TestDecideServiceInflightShed(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{MaxInflight: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the single in-flight slot from the outside.
	if !svc.inflight.TryAcquire() {
		t.Fatal("could not claim the in-flight slot")
	}
	code, retry := decideStatus(t, svc, "session=a&buffer=10&throughput=8")
	if code != 503 {
		t.Fatalf("decide with saturated in-flight bound = %d, want 503", code)
	}
	if retry == "" {
		t.Fatal("503 carries no Retry-After")
	}
	svc.inflight.Release()
	if code, _ := decideStatus(t, svc, "session=a&buffer=10&throughput=8"); code != 200 {
		t.Fatalf("decide after slot release = %d, want 200", code)
	}
	if got := svc.rejectedLoad.Value(); got != 1 {
		t.Errorf("rejected{inflight} = %g, want 1", got)
	}
}

func TestDecideServiceDrain(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		decideGet(t, svc, fmt.Sprintf("session=s%d&buffer=10&throughput=8", i))
	}
	sessions, clean := svc.Drain(time.Second)
	if sessions != 3 {
		t.Fatalf("Drain reported %d sessions, want 3", sessions)
	}
	if !clean {
		t.Fatal("Drain with no in-flight work reported unclean")
	}
	code, _ := decideStatus(t, svc, "session=s0&buffer=10&throughput=8")
	if code != 503 {
		t.Fatalf("decide while draining = %d, want 503", code)
	}
	if got := svc.rejectedDraining.Value(); got != 1 {
		t.Errorf("rejected{draining} = %g, want 1", got)
	}
}

// TestDecideServiceOneClock checks that the service stamps decisions and
// flight-recorder spans from one clock, and pins the spans of four kinds of
// request. The recorder is built 10 ms before the service, so a recorder
// keeping its own origin would shift every span start by at least that.
//
//   - A served decision's at_s equals its respond span's start (to 1 µs),
//     and never decreases within a session.
//   - Each request holds exactly the stages it reached — all five when
//     served, ratelimit alone when rate-limited (429), ratelimit and
//     inflight when shed at the in-flight bound, ratelimit through session
//     when rejected at capacity — back to back from the respond span's start
//     and inside it.
//   - Every stage before the last one reached admitted the request; the
//     last and respond are OK only when served. A served request's session,
//     arena, decide and respond spans name its session; every other span
//     names flightrec.NoSession.
func TestDecideServiceOneClock(t *testing.T) {
	col := telemetry.NewCollector(nil, 1024)
	rec := flightrec.NewRecorder(col.Registry, 1024)
	time.Sleep(10 * time.Millisecond)
	svc, err := NewDecideService(video.Mobile(), DecideOptions{
		MaxSessions: 2, SessionTTL: -1, MaxInflight: 1,
		// Two requests per client, and one more per second.
		RPSPerClient:   1,
		FlightRecorder: rec,
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	var results []DecideResult
	decide := func(session string, buffer float64) DecideResult {
		res := svc.Decide(&DecideRequest{Session: session, Buffer: units.Seconds(buffer),
			Throughput: units.Mbps(3), Segment: -1})
		results = append(results, res)
		return res
	}
	for i, want := range []DecideStatus{StatusOK, StatusOK, StatusRejectedRate} {
		if res := decide("a", float64(4+i)); res.Status != want {
			t.Fatalf("request %d of session a: status %d, want %d", i, res.Status, want)
		}
	}
	if !svc.inflight.TryAcquire() {
		t.Fatal("could not claim the in-flight slot")
	}
	if res := decide("b", 5); res.Status != StatusRejectedLoad {
		t.Fatalf("request with the in-flight bound saturated: status %d", res.Status)
	}
	svc.inflight.Release()
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("1000 fresh sessions admitted into a two-session table")
		}
		res := decide(fmt.Sprintf("c%d", i), 6)
		if res.Status == StatusRejectedCapacity {
			break
		}
		if res.Status != StatusOK {
			t.Fatalf("fresh session c%d: status %d", i, res.Status)
		}
	}

	var by [flightrec.NumStages][]flightrec.Span
	for _, sp := range rec.Snapshot() {
		by[sp.Stage] = append(by[sp.Stage], sp)
	}
	if len(by[flightrec.StageRespond]) != len(results) {
		t.Fatalf("%d respond spans for %d requests", len(by[flightrec.StageRespond]), len(results))
	}
	lastStage := map[DecideStatus]flightrec.Stage{
		StatusOK:               flightrec.StageDecide,
		StatusRejectedRate:     flightrec.StageRateLimit,
		StatusRejectedLoad:     flightrec.StageInflight,
		StatusRejectedCapacity: flightrec.StageSession,
	}
	var next [flightrec.NumStages]int
	var served []flightrec.Span
	for i, res := range results {
		ok := res.Status == StatusOK
		session := flightrec.NoSession
		if ok {
			session = int32(res.SessionID)
		}
		r := by[flightrec.StageRespond][i]
		if r.OK != ok || r.Session != session {
			t.Fatalf("request %d (status %d): respond span %+v, want ok %v session %d", i, res.Status, r, ok, session)
		}
		if ok {
			served = append(served, r)
		}
		cursor := r.Start
		stop := lastStage[res.Status]
		for s := flightrec.Stage(0); s <= stop; s++ {
			if next[s] == len(by[s]) {
				t.Fatalf("request %d (status %d): no %s span left", i, res.Status, s)
			}
			sp := by[s][next[s]]
			next[s]++
			wantSession := flightrec.NoSession
			if s >= flightrec.StageSession {
				wantSession = session
			}
			if sp.Start != cursor || sp.Dur < 0 || sp.OK != (s < stop || ok) || sp.Session != wantSession {
				t.Fatalf("request %d (status %d): %s span %+v, want start %d, ok %v, session %d",
					i, res.Status, s, sp, cursor, s < stop || ok, wantSession)
			}
			cursor += sp.Dur
		}
		if cursor > r.Start+r.Dur {
			t.Fatalf("request %d: stages end at %d, after the respond span %+v", i, cursor, r)
		}
	}
	for s := range by[:flightrec.StageRespond] {
		if next[s] != len(by[s]) {
			t.Fatalf("stage %s holds %d spans, the requests reached it %d times", flightrec.Stage(s), len(by[s]), next[s])
		}
	}

	events := col.Ring.Snapshot()
	if len(events) != len(served) {
		t.Fatalf("%d decision events for %d served requests", len(events), len(served))
	}
	last := map[int32]units.Seconds{}
	for i, ev := range events {
		r := served[i]
		if gap := float64(ev.AtSeconds)*1e9 - float64(r.Start); ev.Session != r.Session || math.Abs(gap) > 1e3 {
			t.Fatalf("decision %d: session %d at_s %.9f, respond span %+v (%.0f ns apart)",
				i, ev.Session, float64(ev.AtSeconds), r, gap)
		}
		if prev, seen := last[ev.Session]; seen && ev.AtSeconds < prev {
			t.Fatalf("decision %d: session %d at_s went back from %g to %g", i, ev.Session, float64(prev), float64(ev.AtSeconds))
		}
		last[ev.Session] = ev.AtSeconds
	}
}
