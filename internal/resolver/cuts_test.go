package resolver

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// tldAddr finds a TLD's server address the way any client would: by asking a
// throwaway resolver for the NS host the registry names.
func tldAddr(t *testing.T, w *testWorld, tld string) netip.Addr {
	t.Helper()
	addrs, err := NewRecursive(w.rec.client, w.rec.root.servers).LookupA(context.Background(), dns.Name("ns0.nic."+tld))
	if err != nil || len(addrs) != 1 {
		t.Fatalf("no address for the %s TLD server: %v %v", tld, addrs, err)
	}
	return addrs[0]
}

// upstream counts what a step sent to the root, to one TLD's server and
// anywhere at all.
type upstream struct {
	w         *testWorld
	root, tld netip.Addr
	r, t, all int64
}

func watch(t *testing.T, w *testWorld, tld string) *upstream {
	t.Helper()
	u := &upstream{w: w, root: w.reg.RootAddr(), tld: tldAddr(t, w, tld)}
	u.delta()
	return u
}

// delta returns the exchanges sent since the last call.
func (u *upstream) delta() (root, tld, all int64) {
	r, t, a := u.w.fabric.QueriesTo(u.root), u.w.fabric.QueriesTo(u.tld), u.w.fabric.Exchanges()
	root, tld, all = r-u.r, t-u.t, a-u.all
	u.r, u.t, u.all = r, t, a
	return
}

// fakeClock gives a resolver a clock the test moves.
func fakeClock(r *Recursive) *time.Time {
	now := time.Now()
	r.now = func() time.Time { return now }
	return &now
}

// TestCutCacheSkipsWalkedZones: once a walk has crossed a cut, later walks
// start below it. A second name under a walked TLD asks the root nothing; a
// second type of a walked name asks neither the root nor the TLD.
func TestCutCacheSkipsWalkedZones(t *testing.T) {
	w := buildWorld(t)
	ctx := context.Background()
	up := watch(t, w, "com")
	if _, err := w.rec.Resolve(ctx, "example.com", dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if root, tld, _ := up.delta(); root == 0 || tld == 0 {
		t.Fatalf("first walk sent %d exchanges to the root and %d to the TLD; it has to cross both", root, tld)
	}
	msg, err := w.rec.Resolve(ctx, "nosuchdomain.com", dns.TypeA)
	if err != nil || msg.Header.RCode != dns.RCodeNXDomain {
		t.Fatalf("second name under com: %v %v", msg, err)
	}
	if root, tld, all := up.delta(); root != 0 || tld != 1 || all != 1 {
		t.Errorf("second name under a walked TLD: %d to the root, %d to the TLD, %d in all; want 0, 1, 1", root, tld, all)
	}
	if _, err := w.rec.LookupTXT(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if root, tld, all := up.delta(); root != 0 || tld != 0 || all != 1 {
		t.Errorf("second type of a walked name: %d to the root, %d to the TLD, %d in all; want 0, 0, 1", root, tld, all)
	}
}

// TestCutExpiresByNSTTL: a cut outlives the answers fetched through it and
// lasts as long as the referral's NS records said (86,400 s in the registry),
// after which the walk starts at the roots again and learns it anew.
func TestCutExpiresByNSTTL(t *testing.T) {
	w := buildWorld(t)
	ctx := context.Background()
	now := fakeClock(w.rec)
	up := watch(t, w, "com")
	if _, err := w.rec.LookupA(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	up.delta()

	*now = now.Add(10 * time.Minute) // past the answer's 300 s, inside the NS TTL
	if _, err := w.rec.LookupA(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if root, tld, all := up.delta(); root != 0 || tld != 0 || all != 1 {
		t.Errorf("expired answer under a live cut: %d to the root, %d to the TLD, %d in all; want 0, 0, 1", root, tld, all)
	}

	*now = now.Add(25 * time.Hour) // past the NS TTL
	if _, err := w.rec.LookupA(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if root, tld, _ := up.delta(); root == 0 || tld == 0 {
		t.Errorf("expired cut: %d to the root, %d to the TLD; the walk has to start over", root, tld)
	}
	if _, err := w.rec.LookupTXT(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if root, tld, all := up.delta(); root != 0 || tld != 0 || all != 1 {
		t.Errorf("re-learned cut: %d to the root, %d to the TLD, %d in all; want 0, 0, 1", root, tld, all)
	}
}

// addGeoZone delegates geo.com to a CDN-style responder that answers A
// queries with an address chosen by the client's country, TTL 60.
func addGeoZone(t *testing.T, w *testWorld) (edgeFor func(country string) netip.Addr) {
	t.Helper()
	asn := w.ipdb.RegisterAS("CDN", "US", 1)
	nsAddr := w.ipdb.MustAllocate(asn)
	edges := map[string]netip.Addr{}
	edgeFor = func(country string) netip.Addr {
		if _, ok := edges[country]; !ok {
			edges[country] = w.ipdb.MustAllocate(asn)
		}
		return edges[country]
	}
	geo := dnsio.ResponderFunc(func(src netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		r.Header.Authoritative = true
		info, _ := w.ipdb.Lookup(src)
		if q.Question().Type == dns.TypeA {
			r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
				Data: &dns.A{Addr: edgeFor(info.Country)}})
		}
		return r
	})
	if _, err := dnsio.AttachSim(w.fabric, nsAddr, geo); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("geo.com", []dns.Name{"ns.geo.com"},
		map[dns.Name]netip.Addr{"ns.geo.com": nsAddr}, time.Now()); err != nil {
		t.Fatal(err)
	}
	return edgeFor
}

// TestPoolSharesCutsNotAnswers: a pool resolver reaches a zone another one
// walked with a single upstream exchange, and nothing else is merged — two
// resolvers in different countries keep their own edge records of a geo zone
// (the CDN case: answers differ by vantage point), and even where two
// resolvers store the very same response each expires it on its own clock.
func TestPoolSharesCutsNotAnswers(t *testing.T) {
	w := buildWorld(t)
	edgeFor := addGeoZone(t, w)
	ctx := context.Background()
	pool, err := NewPool(w.fabric, w.ipdb, []netip.Addr{w.reg.RootAddr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pool.Resolvers[0], pool.Resolvers[1]
	if a.Country == b.Country {
		t.Fatalf("both resolvers in %s; the test needs two countries", a.Country)
	}
	aNow := fakeClock(a.rec)
	fakeClock(b.rec)
	lookup := func(o *OpenResolver, name dns.Name) (netip.Addr, int64) {
		t.Helper()
		before := w.fabric.Exchanges()
		addrs, err := o.rec.LookupA(ctx, name)
		if err != nil || len(addrs) != 1 {
			t.Fatalf("%s resolving %s: %v %v", o.Country, name, addrs, err)
		}
		return addrs[0], w.fabric.Exchanges() - before
	}

	if _, n := lookup(a, "example.com"); n < 3 {
		t.Fatalf("first walk took %d exchanges; it has to cross the root and the TLD", n)
	}
	if _, n := lookup(b, "example.com"); n != 1 {
		t.Errorf("second resolver took %d upstream exchanges for a zone the first walked, want 1", n)
	}
	if n := pool.StoredAnswers(); n != 2 { // the NS host's address and the answer itself
		t.Errorf("%d responses stored for two resolvers holding the same two, want 2", n)
	}

	// Different vantage points, different answers, both kept.
	lookup(a, "geo.com")
	lookup(b, "geo.com")
	for _, o := range pool.Resolvers {
		if got, n := lookup(o, "geo.com"); got != edgeFor(o.Country) || n != 0 {
			t.Errorf("%s: cached edge %v after %d exchanges, want its own %v from cache", o.Country, got, n, edgeFor(o.Country))
		}
	}
	if edgeFor(a.Country) == edgeFor(b.Country) {
		t.Fatal("geo fixture gave both countries one edge")
	}

	// One clock moves past both TTLs; the other resolver's entries stay fresh.
	*aNow = aNow.Add(10 * time.Minute)
	for _, name := range []dns.Name{"example.com", "geo.com"} {
		if _, n := lookup(a, name); n != 1 {
			t.Errorf("%s: %d exchanges for %s after its entry expired, want 1", a.Country, n, name)
		}
		if _, n := lookup(b, name); n != 0 {
			t.Errorf("%s: %d exchanges for %s; another resolver's clock expired its entry", b.Country, n, name)
		}
	}
}

// TestPoolNumbersQuestionsOnce: two resolvers of a pool asked the same N
// questions hold N entries each, under the N ids the pool gave them. Where the answer does not depend on who asked, both entries name one
// stored answer; a geo-aware zone's two countries keep their different
// answers under one id. The second resolver, asked after the pool numbered
// every question, holds an array of exactly that many entries.
func TestPoolNumbersQuestionsOnce(t *testing.T) {
	w := buildWorld(t)
	addGeoZone(t, w)
	pool, err := NewPool(w.fabric, w.ipdb, []netip.Addr{w.reg.RootAddr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pool.Resolvers[0], pool.Resolvers[1]
	questions := []dns.Question{{Name: "example.com", Type: dns.TypeA}, {Name: "example.com", Type: dns.TypeTXT},
		{Name: "www.example.com", Type: dns.TypeA}, {Name: "ext.example.com", Type: dns.TypeA},
		{Name: "missing.example.com", Type: dns.TypeA}, {Name: "geo.com", Type: dns.TypeA}}
	for _, o := range pool.Resolvers {
		for _, q := range questions {
			if _, err := o.rec.Resolve(context.Background(), q.Name, q.Type); err != nil {
				t.Fatalf("%s resolving %v: %v", o.Country, q, err)
			}
		}
	}
	// The first resolver's walk also resolved example.com's NS host; the
	// second started from the cut it left.
	n := pool.Questions()
	if n != len(questions)+1 || a.rec.CacheSize() != n || b.rec.CacheSize() != len(questions) || len(b.rec.cache) != n {
		t.Errorf("pool numbered %d questions; the resolvers hold %d and %d entries, the second in %d slots",
			n, a.rec.CacheSize(), b.rec.CacheSize(), len(b.rec.cache))
	}
	for _, q := range questions {
		id := a.rec.questionID(questionKey(q.Name, q.Type))
		ea, eb := a.rec.cache[id], b.rec.cache[id]
		if geo := q.Name == "geo.com"; ea.answer == 0 || eb.answer == 0 || geo != (ea.answer != eb.answer) {
			t.Errorf("%v under id %d: answers %d and %d (geo-aware: %v)", q, id, ea.answer, eb.answer, geo)
		}
	}
}

// TestCutDeadServersForgotten: when every server of a cached cut fails the
// cut is dropped and the roots are asked again, once; a zone whose servers
// are really gone ends in the ErrLame an uncached walk reports, and is found
// again, and cached again, when they return.
func TestCutDeadServersForgotten(t *testing.T) {
	w := buildWorld(t)
	ctx := context.Background()
	if _, err := w.rec.LookupA(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if c := w.rec.shared.cutsByZone()["example.com"]; c == nil || len(c.servers) != 1 || c.servers[0] != w.ns {
		t.Fatalf("example.com's cut after a walk: %+v, want its one server %v", c, w.ns)
	}
	up := watch(t, w, "com")

	w.nsUp(false)
	_, err := w.rec.LookupTXT(ctx, "example.com")
	if !errors.Is(err, ErrLame) {
		t.Errorf("err = %v, want ErrLame", err)
	}
	if root, tld, _ := up.delta(); root != 1 || tld != 1 {
		t.Errorf("dead cached servers: %d to the root, %d to the TLD; want one re-walk", root, tld)
	}
	if c := w.rec.shared.cutsByZone()["example.com"]; c != nil {
		t.Errorf("cut with dead servers still cached: %+v", c)
	}

	w.nsUp(true)
	if _, err := w.rec.LookupTXT(ctx, "example.com"); err != nil {
		t.Fatalf("servers are back: %v", err)
	}
	up.delta()
	if _, err := w.rec.Resolve(ctx, "www.example.com", dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if root, tld, all := up.delta(); root != 0 || tld != 0 || all != 1 {
		t.Errorf("after recovery: %d to the root, %d to the TLD, %d in all; the cut should be cached again", root, tld, all)
	}
}

// TestCutBailiwick: a server that answers with a referral for a zone it was
// never asked about — the parent of its own, or a sibling — is followed, as
// it always was, but neither that referral nor anything reached through it
// enters the cache that other names, and other resolvers, start from.
func TestCutBailiwick(t *testing.T) {
	for _, claimed := range []dns.Name{"com", "example.com"} {
		t.Run(string(claimed), func(t *testing.T) {
			w := buildWorld(t)
			ctx := context.Background()
			asn := w.ipdb.RegisterAS("ATTACKER", "US", 1)
			hostile, sink, deeper := w.ipdb.MustAllocate(asn), w.ipdb.MustAllocate(asn), w.ipdb.MustAllocate(asn)
			loot := netip.MustParseAddr("203.0.113.66")

			referral := func(q *dns.Message, zone, host dns.Name, addr netip.Addr) *dns.Message {
				r := q.Reply()
				r.Authority = append(r.Authority, dns.RR{Name: zone, Class: dns.ClassINET, TTL: 86400, Data: &dns.NS{Host: host}})
				r.Additional = append(r.Additional, dns.RR{Name: host, Class: dns.ClassINET, TTL: 86400, Data: &dns.A{Addr: addr}})
				return r
			}
			attach := func(addr netip.Addr, f dnsio.ResponderFunc) {
				t.Helper()
				if _, err := dnsio.AttachSim(w.fabric, addr, f); err != nil {
					t.Fatal(err)
				}
			}
			// evil.com's own server claims a zone that is not below evil.com.
			attach(hostile, func(_ netip.Addr, q *dns.Message) *dns.Message {
				return referral(q, claimed, "ns.attacker.test", sink)
			})
			// The server it points at delegates once more — in bailiwick of
			// the claim, were the claim believed — and the last one answers.
			attach(sink, func(_ netip.Addr, q *dns.Message) *dns.Message {
				return referral(q, "a.evil.com", "ns2.attacker.test", deeper)
			})
			attach(deeper, func(_ netip.Addr, q *dns.Message) *dns.Message {
				r := q.Reply()
				r.Header.Authoritative = true
				r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 300, Data: &dns.A{Addr: loot}})
				return r
			})
			if err := w.reg.SetDelegation("evil.com", []dns.Name{"ns.evil.com"},
				map[dns.Name]netip.Addr{"ns.evil.com": hostile}, time.Now()); err != nil {
				t.Fatal(err)
			}

			if addrs, err := w.rec.LookupA(ctx, "example.com"); err != nil || len(addrs) != 1 || addrs[0] != w.site {
				t.Fatalf("example.com before: %v %v", addrs, err)
			}
			before := w.rec.shared.cutsByZone()

			// Followed as today: the hostile chain's answer comes back.
			if addrs, err := w.rec.LookupA(ctx, "www.a.evil.com"); err != nil || len(addrs) != 1 || addrs[0] != loot {
				t.Fatalf("hostile chain: %v %v", addrs, err)
			}
			// Cached: only evil.com itself, which the TLD vouched for.
			after := w.rec.shared.cutsByZone()
			for zone, c := range after {
				if zone != "evil.com" && before[zone] != c {
					t.Errorf("cut %s → %v entered the cache through an out-of-bailiwick referral", zone.String(), c.servers)
				}
			}
			if len(after) != len(before)+1 {
				t.Errorf("%d cuts cached, want the %d from before and evil.com", len(after), len(before))
			}
			if addrs, err := w.rec.LookupTXT(ctx, "example.com"); err != nil || len(addrs) != 1 {
				t.Errorf("example.com after: %v %v", addrs, err)
			}
			if n := w.fabric.QueriesTo(sink); n != 1 {
				t.Errorf("the attacker's server saw %d queries, want the 1 of the hostile walk", n)
			}
		})
	}
}
