package urwatch

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"
	"time"
)

// Clock abstracts time for the rate limiter so tests drive it with a virtual
// clock and assert exact allow/deny sequences.
type Clock func() time.Time

// RateLimiter is a per-client token bucket. Each client address owns an
// independent bucket of Burst tokens refilled at Rate tokens/second; a
// request spends one token. Unknown clients start with a full bucket, so a
// well-behaved client never sees a denial.
//
// Determinism: given the same clock readings and the same per-client request
// sequence, Allow returns the same answers — there is no randomness and no
// cross-client coupling beyond the eviction cap.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   Clock

	mu      sync.Mutex
	buckets map[netip.Addr]*tokenBucket
	// maxClients bounds the bucket map; when exceeded, the stalest buckets
	// (oldest refill stamp, then lowest address) are evicted. Evicted
	// clients restart with a full bucket — more permissive, never less.
	maxClients int
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// DefaultMaxClients bounds tracked clients per limiter.
const DefaultMaxClients = 4096

// NewRateLimiter builds a limiter. rate is tokens/second, burst the bucket
// capacity. A nil clock uses time.Now. rate <= 0 disables limiting (Allow
// always true).
func NewRateLimiter(rate, burst float64, clock Clock) *RateLimiter {
	if clock == nil {
		clock = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{
		rate: rate, burst: burst, now: clock,
		buckets:    make(map[netip.Addr]*tokenBucket),
		maxClients: DefaultMaxClients,
	}
}

// Allow reports whether the client may proceed, spending one token if so.
func (l *RateLimiter) Allow(client netip.Addr) bool {
	if l == nil || l.rate <= 0 {
		return true
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= l.maxClients {
			l.evictStalest()
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStalest drops the quarter of buckets with the oldest refill stamps,
// lowest address first among equal stamps. Called with the lock held.
func (l *RateLimiter) evictStalest() {
	type stamp struct {
		addr netip.Addr
		last time.Time
	}
	all := make([]stamp, 0, len(l.buckets))
	for a, b := range l.buckets {
		all = append(all, stamp{a, b.last})
	}
	slices.SortFunc(all, func(x, y stamp) int {
		return cmp.Or(x.last.Compare(y.last), x.addr.Compare(y.addr))
	})
	for _, st := range all[:max(len(all)/4, 1)] {
		delete(l.buckets, st.addr)
	}
}
