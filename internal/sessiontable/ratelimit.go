package sessiontable

import (
	"fmt"
	"runtime"
	"sync"
)

// nanosPerSecond converts the limiter's nanosecond clock into token units.
const nanosPerSecond = 1e9

// bucket is one client's token bucket. Tokens refill lazily at Allow time
// from the elapsed nanoseconds, so idle buckets cost nothing between
// requests.
type bucket struct {
	tokens float64
	last   int64 // the caller's nanosecond clock at the last refill
}

// limiterShard is one independently locked partition of the per-client
// bucket map, padded like the session-table shards.
type limiterShard struct {
	mu sync.Mutex
	//soda:guard mu
	buckets map[string]*bucket
	_       [64]byte
}

// Limiter is token-bucket admission control keyed by client id: each client
// accrues rate tokens per second up to burst, and every admitted request
// spends one. Like the session table it is sharded, clock-injected, and
// allocation-free on the steady-state path (an existing client's Allow is a
// map lookup plus arithmetic under the shard lock).
type Limiter struct {
	rate  float64
	burst float64

	shards []limiterShard
	mask   uint64
}

// NewLimiter builds a limiter granting rate tokens per second with the given
// burst capacity per client. burst <= 0 defaults to rate (one second of
// headroom); rate must be positive — a harness that wants no limiting passes
// a nil *Limiter, which admits everything.
func NewLimiter(rate, burst float64) *Limiter {
	if rate <= 0 {
		panic(fmt.Sprintf("sessiontable: non-positive limiter rate %g", rate))
	}
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	shards := runtime.GOMAXPROCS(0)
	if shards > 256 {
		shards = 256
	}
	shardCount := 1
	for shardCount < shards {
		shardCount <<= 1
	}
	l := &Limiter{rate: rate, burst: burst, shards: make([]limiterShard, shardCount), mask: uint64(shardCount - 1)}
	for i := range l.shards {
		l.shards[i].buckets = map[string]*bucket{}
	}
	return l
}

// shardFor maps a client id onto its shard (FNV-1a, like the session table).
func (l *Limiter) shardFor(client string) *limiterShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(client); i++ {
		h ^= uint64(client[i])
		h *= prime64
	}
	return &l.shards[h&l.mask]
}

// Allow spends one token from client's bucket if available. When the bucket
// is empty it returns false and the number of nanoseconds until a token
// accrues — the Retry-After a 429 response should carry. A nil limiter
// admits everything.
func (l *Limiter) Allow(client string, now int64) (ok bool, retryAfterNanos int64) {
	if l == nil {
		return true, 0
	}
	sh := l.shardFor(client)
	sh.mu.Lock()
	b := sh.buckets[client]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		sh.buckets[client] = b
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * l.rate / nanosPerSecond
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		sh.mu.Unlock()
		return true, 0
	}
	deficit := 1 - b.tokens
	sh.mu.Unlock()
	return false, int64(deficit * nanosPerSecond / l.rate)
}

// Sweep drops buckets idle for at least idleNanos as of now, so client churn
// cannot grow the limiter without bound (the same leak the session TTL sweep
// closes for sessions). Returns the number dropped. Nil-safe.
func (l *Limiter) Sweep(now, idleNanos int64) int {
	if l == nil || idleNanos <= 0 {
		return 0
	}
	dropped := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for client, b := range sh.buckets {
			if now-b.last >= idleNanos {
				delete(sh.buckets, client)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Clients returns the tracked client count (for tests and gauges). Nil-safe.
func (l *Limiter) Clients() int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}
