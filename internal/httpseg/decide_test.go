package httpseg

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

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
	svc, err := NewDecideService(video.Mobile(), DecideOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{
		"",                                      // missing session
		"session=a",                             // missing buffer/throughput
		"session=a&buffer=-1&throughput=5",      // negative buffer
		"session=a&buffer=5&throughput=bogus",   // non-numeric
		"session=a&buffer=5&throughput=5&cap=0", // non-positive cap
		"session=a&buffer=5&throughput=5&prev=99",    // prev out of range
		"session=a&buffer=5&throughput=5&segment=-1", // negative segment
	} {
		rw := httptest.NewRecorder()
		svc.ServeHTTP(rw, httptest.NewRequest("GET", "/decide?"+query, nil))
		if rw.Code != 400 {
			t.Errorf("GET /decide?%s = %d, want 400", query, rw.Code)
		}
	}
	rw := httptest.NewRecorder()
	svc.ServeHTTP(rw, httptest.NewRequest("POST", "/decide?session=a&buffer=5&throughput=5", nil))
	if rw.Code != 405 {
		t.Errorf("POST = %d, want 405", rw.Code)
	}
}

// TestDecideServiceRejectsNonFinite: a NaN or infinite buffer, throughput or
// cap is a 400, never a decision — let through, it poisoned the histogram
// sums, broke the reply encoding or bound a table identity.
func TestDecideServiceRejectsNonFinite(t *testing.T) {
	col := telemetry.NewCollector(nil, 16)
	svc, err := NewDecideService(video.Mobile(), DecideOptions{TableQuantum: 0.5}, col)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "1e999", "-1e999"} {
		v := url.QueryEscape(bad)
		for _, query := range []string{
			"session=a&buffer=" + v + "&throughput=5",
			"session=a&buffer=5&throughput=" + v,
			"session=a&buffer=5&throughput=5&cap=" + v,
		} {
			if code, _ := decideStatus(t, svc, query); code != 400 {
				t.Errorf("GET /decide?%s = %d, want 400", query, code)
			}
		}
	}
	if got := col.Decisions.Value(); got != 0 {
		t.Errorf("%g decisions recorded from rejected requests", got)
	}
	if got := svc.tables.Stats().Tables; got != 1 {
		t.Errorf("%d decision tables bound, want only the default cap's", got)
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

// TestDecideServiceMemoOnlyWithoutTables: a session on a service with
// compiled tables keeps no decide memo (the table quantizes its inputs, and
// the shared cache answers what the memo would have), while a session on a
// tables-off service keeps the core default, which quantizes the shared
// cache's keys.
func TestDecideServiceMemoOnlyWithoutTables(t *testing.T) {
	for _, tc := range []struct {
		name     string
		quantum  float64
		wantMemo bool
	}{{"tables", 0.5, false}, {"no-tables", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			col := telemetry.NewCollector(nil, 16)
			svc, err := NewDecideService(video.Mobile(), DecideOptions{CacheEntries: 1 << 10, TableQuantum: tc.quantum}, col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				// 500 Mb/s is off the tables' grid, so a table-backed session
				// falls back to the path the memo would sit on.
				decideGet(t, svc, fmt.Sprintf("session=a&buffer=%d&throughput=500", 2+i))
			}
			if got := col.MemoLookups.Value() > 0; got != tc.wantMemo {
				t.Fatalf("memo lookups = %g, want memo in use = %v", col.MemoLookups.Value(), tc.wantMemo)
			}
			if got := col.SharedLookups.Value(); got == 0 {
				t.Fatal("the shared cache saw no lookups")
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
	if got := svc.evictions.Value(); got == 0 {
		t.Error("eviction counter never moved")
	}
}

// TestHostileSessionKeyChurn floods a full session table with fresh keys
// while honest sessions keep deciding, serially and from a second goroutine.
// With a 1 h TTL nothing ever expires, so once the table is full every fresh
// key is refused with StatusRejectedCapacity, and the rejection count is
// exact. The honest sessions keep their session ids, and their rungs, waits
// and segments equal those of an isolated service that sees only the honest
// stream: key churn at capacity can neither evict nor perturb a live session.
func TestHostileSessionKeyChurn(t *testing.T) {
	const (
		honest = 4
		rounds = 60
	)
	// 16 sessions per CPU: the table has one shard per CPU rounded up to a
	// power of two, so every shard holds at least 8 entries and the honest
	// sessions fit even if they all hash to one shard.
	opts := DecideOptions{CacheEntries: 1 << 10, TableQuantum: 0.5,
		MaxSessions: 16 * runtime.GOMAXPROCS(0), SessionTTL: time.Hour}
	honestReq := func(h, round int) *DecideRequest {
		return &DecideRequest{
			Session: fmt.Sprintf("honest-%d", h),
			Buffer:  units.Seconds(float64((round*7+h*3)%19) * 0.9),
			// Every fifth round's throughput is off the tables' grid, so
			// the solver path runs too.
			Throughput: units.Mbps(0.4 + float64((round*5+h)%13)*0.7 + float64(round%5/4)*40),
			Segment:    -1,
		}
	}
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
			flood := (30*capacity + rounds - 1) / rounds

			var sent, admitted, rejected int
			sendFresh := func(n int, checkFull bool) {
				full := svc.SessionStats().Active == capacity
				res := svc.Decide(freshReq(n))
				sent++
				switch res.Status {
				case StatusOK:
					admitted++
					if checkFull && full {
						t.Errorf("fresh key %d admitted into a full table", n)
					}
				case StatusRejectedCapacity:
					rejected++
				default:
					t.Errorf("fresh key %d: status %d", n, res.Status)
				}
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			if concurrent {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for n := 0; n < rounds*flood; n++ {
						sendFresh(n, false)
					}
				}()
			}

			ids := map[string]int64{}
			for round := 0; round < rounds; round++ {
				for h := 0; h < honest; h++ {
					want := isolated.Decide(honestReq(h, round))
					got := svc.Decide(honestReq(h, round))
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
					close(start) // the honest sessions are admitted; let the flood in
				}
				if !concurrent {
					for i := 0; i < flood; i++ {
						sendFresh(round*flood+i, true)
					}
				}
			}
			wg.Wait()

			if sent != rounds*flood {
				t.Fatalf("sent %d fresh keys, want %d", sent, rounds*flood)
			}
			if admitted != capacity-honest {
				t.Errorf("%d fresh keys admitted, want the %d free entries", admitted, capacity-honest)
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

func TestDecideServiceRateLimit(t *testing.T) {
	svc, err := NewDecideService(video.Mobile(), DecideOptions{
		RPSPerClient:   1,
		BurstPerClient: 2,
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
