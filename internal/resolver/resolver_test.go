package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/zone"
)

// testWorld builds root -> com -> (example.com, hoster.net) with a web of
// records exercising CNAME chains, glueless NS, and negative answers.
type testWorld struct {
	fabric *simnet.Fabric
	ipdb   *ipam.DB
	reg    *registry.Registry
	rec    *Recursive
	site   netip.Addr
	// ns is the address of the one server hosting example.com and
	// hoster.net; nsUp(false) takes it off the fabric, nsUp(true) puts it back.
	ns   netip.Addr
	nsUp func(up bool)
}

func buildWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{fabric: simnet.New(1), ipdb: ipam.New()}
	var err error
	w.reg, err = registry.New(w.fabric, w.ipdb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tld := range []dns.Name{"com", "net"} {
		if err := w.reg.CreateTLD(tld, 1); err != nil {
			t.Fatal(err)
		}
	}
	hostASN := w.ipdb.RegisterAS("HOSTER", "US", 1)
	nsAddr := w.ipdb.MustAllocate(hostASN)
	w.site = w.ipdb.MustAllocate(hostASN)

	srv := authority.NewServer()
	// hoster.net zone: the provider's own infrastructure (glueless target).
	hz := zone.New("hoster.net")
	hz.MustAddRR("hoster.net 3600 IN SOA ns1.hoster.net h.hoster.net 1 7200 3600 1209600 300")
	hz.MustAddRR("ns1.hoster.net 3600 IN A " + nsAddr.String())
	if err := srv.AddZone(hz); err != nil {
		t.Fatal(err)
	}
	// example.com zone.
	ez := zone.New("example.com")
	ez.MustAddRR("example.com 3600 IN SOA ns1.hoster.net h.hoster.net 1 7200 3600 1209600 300")
	ez.MustAddRR("example.com 300 IN A " + w.site.String())
	ez.MustAddRR(`example.com 300 IN TXT "v=spf1 -all"`)
	ez.MustAddRR("www.example.com 300 IN CNAME example.com")
	ez.MustAddRR("ext.example.com 300 IN CNAME target.hoster.net")
	if err := srv.AddZone(ez); err != nil {
		t.Fatal(err)
	}
	hz.MustAddRR("target.hoster.net 300 IN A " + w.site.String())

	w.ns = nsAddr
	var detach func()
	w.nsUp = func(up bool) {
		if !up {
			detach()
		} else if detach, err = dnsio.AttachSim(w.fabric, nsAddr, srv); err != nil {
			t.Fatal(err)
		}
	}
	w.nsUp(true)
	// Delegate example.com with glueless NS (forces NS A resolution via
	// hoster.net, which IS glued at the net TLD).
	if err := w.reg.SetDelegation("example.com", []dns.Name{"ns1.hoster.net"}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("hoster.net", []dns.Name{"ns1.hoster.net"},
		map[dns.Name]netip.Addr{"ns1.hoster.net": nsAddr}, time.Now()); err != nil {
		t.Fatal(err)
	}

	clientASN := w.ipdb.RegisterAS("EYEBALL", "DE", 1)
	src := w.ipdb.MustAllocate(clientASN)
	client := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: src})
	client.SeedIDs(11)
	w.rec = NewRecursive(client, []netip.Addr{w.reg.RootAddr()})
	return w
}

func TestResolveA(t *testing.T) {
	w := buildWorld(t)
	addrs, err := w.rec.LookupA(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != w.site {
		t.Errorf("addrs = %v, want %v", addrs, w.site)
	}
}

func TestResolveTXT(t *testing.T) {
	w := buildWorld(t)
	txts, err := w.rec.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Errorf("txts = %v", txts)
	}
}

func TestResolveCNAMEInZone(t *testing.T) {
	w := buildWorld(t)
	msg, err := w.rec.Resolve(context.Background(), "www.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 2 {
		t.Fatalf("answers: %v", msg.Answers)
	}
	if msg.Answers[0].Type() != dns.TypeCNAME || msg.Answers[1].Type() != dns.TypeA {
		t.Errorf("chain: %v", msg.Answers)
	}
}

func TestResolveCNAMEAcrossZones(t *testing.T) {
	w := buildWorld(t)
	msg, err := w.rec.Resolve(context.Background(), "ext.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// The server hosts both zones so it chases in-server; either way the
	// final answer must include the target A record.
	got := msg.AnswersOfType(dns.TypeA)
	if len(got) != 1 || got[0].Data.(*dns.A).Addr != w.site {
		t.Errorf("answers: %v", msg.Answers)
	}
}

func TestResolveNXDomain(t *testing.T) {
	w := buildWorld(t)
	msg, err := w.rec.Resolve(context.Background(), "missing.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("rcode = %v", msg.Header.RCode)
	}
}

func TestResolveUnregisteredDomain(t *testing.T) {
	w := buildWorld(t)
	msg, err := w.rec.Resolve(context.Background(), "nosuchdomain.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("rcode = %v", msg.Header.RCode)
	}
}

func TestCacheHitAvoidsNetwork(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.rec.LookupA(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	before := w.fabric.Exchanges()
	if _, err := w.rec.LookupA(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	if w.fabric.Exchanges() != before {
		t.Errorf("cache miss: %d exchanges after warm query", w.fabric.Exchanges()-before)
	}
	if w.rec.CacheSize() == 0 {
		t.Error("cache empty")
	}
}

func TestCacheExpiry(t *testing.T) {
	w := buildWorld(t)
	fake := time.Now()
	w.rec.now = func() time.Time { return fake }
	if _, err := w.rec.LookupA(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	before := w.fabric.Exchanges()
	fake = fake.Add(10 * time.Minute) // past the 300s record TTL
	if _, err := w.rec.LookupA(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	if w.fabric.Exchanges() == before {
		t.Error("expired entry served from cache")
	}
}

// TestCacheDisabled: CacheLimit 0 switches off the answer cache and the
// zone-cut cache alike, so every Resolve repeats the whole walk.
func TestCacheDisabled(t *testing.T) {
	w := buildWorld(t)
	w.rec.CacheLimit = 0
	var walks [2]int64
	for i := range walks {
		before := w.fabric.QueriesTo(w.reg.RootAddr())
		if _, err := w.rec.LookupA(context.Background(), "example.com"); err != nil {
			t.Fatal(err)
		}
		walks[i] = w.fabric.QueriesTo(w.reg.RootAddr()) - before
	}
	if walks[0] == 0 || walks[1] != walks[0] {
		t.Errorf("root saw %d then %d queries; with caching off both resolutions walk from the roots", walks[0], walks[1])
	}
	if w.rec.CacheSize() != 0 {
		t.Error("cache populated while disabled")
	}
	if s := w.rec.shared; len(s.cutsByZone()) != 0 || s.nQuestions != 0 || s.storedAnswers() != 0 {
		t.Errorf("shared tables populated while disabled: %d cuts, %d questions, %d answers",
			len(s.cutsByZone()), s.nQuestions, s.storedAnswers())
	}
}

func TestNoRootsError(t *testing.T) {
	w := buildWorld(t)
	empty := NewRecursive(w.rec.client, nil)
	if _, err := empty.Resolve(context.Background(), "example.com", dns.TypeA); err == nil {
		t.Error("expected error with no roots")
	}
}

func TestOpenResolverOverWire(t *testing.T) {
	w := buildWorld(t)
	oAddr := w.ipdb.MustAllocate(w.ipdb.RegisterAS("OPENRES", "JP", 1))
	o, err := NewOpenResolver(w.fabric, oAddr, "JP", []netip.Addr{w.reg.RootAddr()})
	if err != nil {
		t.Fatal(err)
	}
	if o.Resolver() == nil {
		t.Fatal("nil inner resolver")
	}
	clientSrc := w.ipdb.MustAllocate(w.ipdb.RegisterAS("CLIENT2", "FR", 1))
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: clientSrc})
	resp, err := c.Query(context.Background(), netip.AddrPortFrom(oAddr, dnsio.DNSPort),
		"www.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.RecursionAvailable {
		t.Error("RA not set")
	}
	if got := resp.AnswersOfType(dns.TypeA); len(got) != 1 || got[0].Data.(*dns.A).Addr != w.site {
		t.Errorf("answers: %v", resp.Answers)
	}
	// Iterative-only query is refused.
	q := dns.NewQuery(5, "example.com", dns.TypeA)
	q.Header.RecursionDesired = false
	resp, err = c.Exchange(context.Background(), netip.AddrPortFrom(oAddr, dnsio.DNSPort), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestPoolSpreadsCountries(t *testing.T) {
	w := buildWorld(t)
	pool, err := NewPool(w.fabric, w.ipdb, []netip.Addr{w.reg.RootAddr()}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Resolvers) != 60 {
		t.Fatalf("pool size = %d", len(pool.Resolvers))
	}
	byCountry := pool.ByCountry()
	if len(byCountry) != 30 {
		t.Errorf("countries = %d, want 30", len(byCountry))
	}
	for c, rs := range byCountry {
		if len(rs) != 2 {
			t.Errorf("country %s has %d resolvers", c, len(rs))
		}
	}
	// Every pool member can resolve.
	addrs, err := pool.Resolvers[7].Resolver().LookupA(context.Background(), "example.com")
	if err != nil || len(addrs) != 1 {
		t.Errorf("pool member resolution: %v %v", addrs, err)
	}
}
