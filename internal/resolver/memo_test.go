package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// resolveCounting resolves name's A record through o and returns the answer
// with the exchanges the resolution made.
func resolveCounting(t *testing.T, w *testWorld, o *OpenResolver, name dns.Name) (*dns.Message, int64) {
	t.Helper()
	before := w.fabric.Exchanges()
	msg, err := o.rec.Resolve(context.Background(), name, dns.TypeA)
	if err != nil {
		t.Fatalf("%s resolving %s: %v", o.Country, name, err)
	}
	return msg, w.fabric.Exchanges() - before
}

// TestUpstreamMemoKeepsRegions: the memo is keyed by the answer's bytes, so
// a geo zone's per-region answers are separate entries. Two resolvers in
// different countries each get their own region's edge; a third in the first
// one's country receives the first one's bytes, and is handed the answer
// that resolution stored — without building one of its own, and without
// skipping the exchange.
func TestUpstreamMemoKeepsRegions(t *testing.T) {
	w := buildWorld(t)
	edgeFor := addGeoZone(t, w)
	roots := []netip.Addr{w.reg.RootAddr()}
	pool, err := NewPool(w.fabric, w.ipdb, roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pool.Resolvers[0], pool.Resolvers[1]
	if a.Country == b.Country {
		t.Fatalf("both resolvers in %s; the test needs two countries", a.Country)
	}
	cAddr := w.ipdb.MustAllocate(w.ipdb.RegisterAS("ISP-SECOND", a.Country, 1))
	c, err := newOpenResolver(w.fabric, cAddr, a.Country, roots, a.rec.shared)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(msg *dns.Message) netip.Addr {
		if as := msg.AnswersOfType(dns.TypeA); len(as) == 1 {
			return as[0].Data.(*dns.A).Addr
		}
		return netip.Addr{}
	}

	aMsg, _ := resolveCounting(t, w, a, "geo.com")
	bMsg, _ := resolveCounting(t, w, b, "geo.com")
	for o, msg := range map[*OpenResolver]*dns.Message{a: aMsg, b: bMsg} {
		if got := edge(msg); got != edgeFor(o.Country) {
			t.Errorf("%s resolved geo.com to %v, want its region's edge %v", o.Country, got, edgeFor(o.Country))
		}
	}
	cMsg, n := resolveCounting(t, w, c, "geo.com")
	if cMsg != aMsg {
		t.Errorf("the second %s resolver built its own answer (edge %v); want the one the first stored", c.Country, edge(cMsg))
	}
	if n != 1 {
		t.Errorf("the second %s resolver made %d exchanges under a cached cut, want 1", c.Country, n)
	}
	if again, n := resolveCounting(t, w, c, "geo.com"); again != aMsg || n != 0 {
		t.Errorf("the recognised answer was not cached: %d exchanges to resolve geo.com again", n)
	}
}

// TestUpstreamMemoKeysOnQuestion: a response need not carry its question, so
// two questions can receive the same bytes. An authority that answers every
// question of its zone with one question-less response gives the second
// question the first one's bytes; the second resolution must decode them and
// answer its own question, as a resolver without caches does.
func TestUpstreamMemoKeysOnQuestion(t *testing.T) {
	w := buildWorld(t)
	nsAddr := w.ipdb.MustAllocate(w.ipdb.RegisterAS("SAME", "US", 1))
	same := dnsio.ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		r.Header.Authoritative = true
		r.Questions = nil
		r.Answers = append(r.Answers, dns.RR{Name: "same.com", Class: dns.ClassINET, TTL: 300,
			Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.99")}})
		return r
	})
	if _, err := dnsio.AttachSim(w.fabric, nsAddr, same); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("same.com", []dns.Name{"ns.same.com"},
		map[dns.Name]netip.Addr{"ns.same.com": nsAddr}, time.Now()); err != nil {
		t.Fatal(err)
	}
	roots := []netip.Addr{w.reg.RootAddr()}
	pool, err := NewPool(w.fabric, w.ipdb, roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pool.Resolvers[0], pool.Resolvers[1]
	xMsg, _ := resolveCounting(t, w, a, "x.same.com")
	yMsg, _ := resolveCounting(t, w, b, "y.same.com")
	if yMsg == xMsg {
		t.Fatal("y.same.com was answered with the response stored for x.same.com")
	}
	alone := NewRecursive(dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: b.Addr}), roots)
	alone.cacheLimit = 0
	want, err := alone.Resolve(context.Background(), "y.same.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if yMsg.Summary() != want.Summary() {
		t.Errorf("y.same.com through the pool:\n%s\nwithout caches:\n%s", yMsg.Summary(), want.Summary())
	}
}

// TestUpstreamMemoOffWithCacheOff: a cache limit of 0 turns the memo off
// with the caches. Such a resolver leaves no entry, and does not take the one
// another resolver of its pool left.
func TestUpstreamMemoOffWithCacheOff(t *testing.T) {
	w := buildWorld(t)
	pool, err := NewPool(w.fabric, w.ipdb, []netip.Addr{w.reg.RootAddr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	off, on := pool.Resolvers[0], pool.Resolvers[1]
	off.rec.cacheLimit = 0
	resolveCounting(t, w, off, "example.com")
	if n := pool.KnownAnswers(); n != 0 {
		t.Fatalf("a resolver with its caches off left %d entries in the memo", n)
	}
	stored, _ := resolveCounting(t, w, on, "example.com")
	n := pool.KnownAnswers()
	if n == 0 {
		t.Fatal("a resolver with its caches on left no entry in the memo")
	}
	if msg, _ := resolveCounting(t, w, off, "example.com"); msg == stored {
		t.Error("a resolver with its caches off was handed the answer the memo holds")
	}
	if got := pool.KnownAnswers(); got != n {
		t.Errorf("a resolver with its caches off took the memo from %d entries to %d", n, got)
	}
}
