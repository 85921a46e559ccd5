package urwatch

import (
	"net/netip"
	"testing"
	"time"
)

// virtualClock is a hand-advanced clock for deterministic limiter tests.
type virtualClock struct{ now time.Time }

func (c *virtualClock) read() time.Time         { return c.now }
func (c *virtualClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newVirtualClock() *virtualClock            { return &virtualClock{now: time.Unix(1000, 0)} }

func TestRateLimiterDeterministicSequence(t *testing.T) {
	clk := newVirtualClock()
	l := NewRateLimiter(1, 2, clk.read) // 1 token/s, burst 2
	client := netip.MustParseAddr("10.0.0.1")

	// Exact allow/deny script under the virtual clock.
	steps := []struct {
		advance time.Duration
		want    bool
	}{
		{0, true},                       // burst token 1
		{0, true},                       // burst token 2
		{0, false},                      // empty
		{500 * time.Millisecond, false}, // 0.5 tokens: still short
		{500 * time.Millisecond, true},  // refilled to 1
		{0, false},                      // spent again
		{5 * time.Second, true},         // refill caps at burst (2)...
		{0, true},
		{0, false}, // ...not at 5
	}
	for i, s := range steps {
		clk.advance(s.advance)
		if got := l.Allow(client); got != s.want {
			t.Fatalf("step %d (t=%s): Allow = %v, want %v", i, clk.now.Sub(time.Unix(1000, 0)), got, s.want)
		}
	}
}

func TestRateLimiterPerClientIndependence(t *testing.T) {
	clk := newVirtualClock()
	l := NewRateLimiter(1, 1, clk.read)
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")

	if !l.Allow(a) {
		t.Fatal("client a first request denied")
	}
	if l.Allow(a) {
		t.Fatal("client a second request allowed with burst 1")
	}
	// Client b is untouched by a's exhaustion.
	if !l.Allow(b) {
		t.Fatal("client b denied by a's consumption")
	}
	if len(l.buckets) != 2 {
		t.Errorf("%d client buckets, want 2", len(l.buckets))
	}
}

func TestRateLimiterDisabledAndNil(t *testing.T) {
	client := netip.MustParseAddr("10.0.0.1")
	var nilLimiter *RateLimiter
	for i := 0; i < 10; i++ {
		if !nilLimiter.Allow(client) {
			t.Fatal("nil limiter denied")
		}
	}
	off := NewRateLimiter(0, 0, nil)
	for i := 0; i < 10; i++ {
		if !off.Allow(client) {
			t.Fatal("rate<=0 limiter denied")
		}
	}
}

func TestRateLimiterSameInputsSameAnswers(t *testing.T) {
	run := func() []bool {
		clk := newVirtualClock()
		l := NewRateLimiter(2, 3, clk.read)
		client := netip.MustParseAddr("10.0.0.9")
		var out []bool
		for i := 0; i < 20; i++ {
			out = append(out, l.Allow(client))
			clk.advance(200 * time.Millisecond)
		}
		return out
	}
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run divergence at request %d: %v vs %v", i, first, second)
		}
	}
}

// TestRateLimiterEvictsLowestAddressesOnTies: with every bucket stamped at
// one clock reading, the eviction that a ninth client forces on eight drops
// the two lowest addresses, whatever the map's order. Asked again in
// descending order (so a re-admitted client evicts only clients already
// asked), exactly those two come back with a full bucket.
func TestRateLimiterEvictsLowestAddressesOnTies(t *testing.T) {
	clk := newVirtualClock()
	l := NewRateLimiter(1, 1, clk.read)
	l.maxClients = 8
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}) }
	for i := 1; i <= 9; i++ {
		if !l.Allow(addr(i)) {
			t.Fatalf("new client %d denied", i)
		}
	}
	var allowed []int
	for i := 9; i >= 1; i-- {
		if l.Allow(addr(i)) {
			allowed = append(allowed, i)
		}
	}
	if len(allowed) != 2 || allowed[0] != 2 || allowed[1] != 1 {
		t.Fatalf("allowed again: %v, want [2 1]", allowed)
	}
}
