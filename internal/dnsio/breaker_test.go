package dnsio

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// storedBreakers counts the breakers a set holds.
func storedBreakers(s *BreakerSet) int {
	n := 0
	s.m.Range(func(netip.Addr, *breaker) bool { n++; return true })
	return n
}

// TestBreakerStoresOnlyFailures: healthy exchanges from 4 scratches to 50
// servers leave the set empty, since a breaker that never saw a failure acts
// as a missing one; one failed exchange stores exactly one breaker.
func TestBreakerStoresOnlyFailures(t *testing.T) {
	fabric := simnet.New(3)
	servers := make([]netip.AddrPort, 50)
	for i := range servers {
		addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})
		detach, err := AttachSim(fabric, addr, staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(detach)
		servers[i] = netip.AddrPortFrom(addr, DNSPort)
	}
	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.SeedIDs(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := new(Scratch)
			for _, server := range servers {
				if _, _, err := c.QueryInto(context.Background(), s, server, "x.test", dns.TypeA); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := storedBreakers(c.Breakers); n != 0 {
		t.Fatalf("healthy exchanges stored %d breakers, want 0", n)
	}
	dead := netip.MustParseAddrPort("192.0.2.200:53")
	if _, err := c.Query(context.Background(), dead, "x.test", dns.TypeA); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	if n, counted := storedBreakers(c.Breakers), c.Breakers.stored.Load(); n != 1 || counted != 1 {
		t.Fatalf("one failure: %d breakers stored, %d counted; want 1 and 1", n, counted)
	}
}

// TestBreakerAbsenceMemoSeesOthersFailures: scratch A remembers that server
// X has no breaker; scratch B then fails X Threshold times and opens one. A
// must not trust its remembered absence: its next exchange fails fast.
func TestBreakerAbsenceMemoSeesOthersFailures(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, HalfOpenAfter: 8}
	tr := &scriptTransport{script: []error{
		nil,                                                     // A succeeds
		simnet.ErrTimeout, simnet.ErrTimeout, simnet.ErrTimeout, // B fails 3 times
	}}
	c := NewClient(tr)
	c.Retries = 0
	c.Backoff = BackoffPolicy{}
	c.Breakers = NewBreakerSet(cfg)
	x := netip.MustParseAddrPort("192.0.2.1:53")
	a, b := new(Scratch), new(Scratch)
	ctx := context.Background()
	if _, _, err := c.QueryInto(ctx, a, x, "x.test", dns.TypeA); err != nil {
		t.Fatalf("A's first exchange: %v", err)
	}
	for i := 0; i < cfg.Threshold; i++ {
		if _, _, err := c.QueryInto(ctx, b, x, "x.test", dns.TypeA); !errors.Is(err, simnet.ErrTimeout) {
			t.Fatalf("B's exchange %d: %v", i, err)
		}
	}
	calls := tr.calls
	if _, _, err := c.QueryInto(ctx, a, x, "x.test", dns.TypeA); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("A after B opened X's breaker: %v, want ErrCircuitOpen", err)
	}
	if tr.calls != calls {
		t.Error("A's fast-failed exchange touched the transport")
	}
}

// eagerBreakers is the state machine as a set that stores a breaker for
// every server it is asked about, which the set that stores only failures
// must answer exactly as.
type eagerBreakers struct {
	cfg   BreakerConfig
	trips int64
	m     map[netip.Addr]*modelBreaker
}

type modelBreaker struct {
	consec, blocked int
	open            bool
}

func (e *eagerBreakers) get(addr netip.Addr) *modelBreaker {
	b := e.m[addr]
	if b == nil {
		b = new(modelBreaker)
		e.m[addr] = b
	}
	return b
}

func (e *eagerBreakers) allow(addr netip.Addr) bool {
	b := e.get(addr)
	if !b.open {
		return true
	}
	b.blocked++
	if b.blocked >= e.cfg.HalfOpenAfter {
		b.blocked = 0
		return true
	}
	return false
}

func (e *eagerBreakers) report(addr netip.Addr, ok bool) {
	b := e.get(addr)
	if ok {
		b.open, b.consec, b.blocked = false, 0, 0
		return
	}
	b.consec++
	if !b.open && b.consec >= e.cfg.Threshold {
		b.open, b.blocked = true, 0
		e.trips++
	}
}

// TestBreakerMatchesEagerModel: a seeded interleaving of allows and reports
// from 3 scratches over 4 servers gives the same answers, open states and
// trips as the eager model, for several seeds.
func TestBreakerMatchesEagerModel(t *testing.T) {
	cfg := BreakerConfig{Threshold: 2, HalfOpenAfter: 3}
	servers := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("192.0.2.3"), netip.MustParseAddr("192.0.2.4"),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := NewBreakerSet(cfg)
		model := &eagerBreakers{cfg: cfg, m: make(map[netip.Addr]*modelBreaker)}
		scratches := []*Scratch{new(Scratch), new(Scratch), new(Scratch)}
		for step := 0; step < 2000; step++ {
			s, addr := scratches[rng.Intn(len(scratches))], servers[rng.Intn(len(servers))]
			switch op := rng.Intn(5); {
			case op < 2:
				b := s.breaker(set, addr) // exchange's gate
				if got, want := b == nil || b.allow(set.cfg), model.allow(addr); got != want {
					t.Fatalf("seed %d step %d: allow(%s) = %v, model %v", seed, step, addr, got, want)
				}
			default:
				ok := op < 4 && rng.Intn(3) > 0 // failures are common enough to trip
				s.report(set, addr, ok)
				model.report(addr, ok)
			}
			for _, a := range servers {
				if got, want := set.Open(a), model.m[a] != nil && model.m[a].open; got != want {
					t.Fatalf("seed %d step %d: Open(%s) = %v, model %v", seed, step, a, got, want)
				}
			}
		}
		if got := set.Trips(); got != model.trips || got == 0 {
			t.Fatalf("seed %d: trips = %d, model %d (want some)", seed, got, model.trips)
		}
	}
}
