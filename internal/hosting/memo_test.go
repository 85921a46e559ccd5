package hosting

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/zone"
)

// memoFixture is a CDN provider's zone for cdn-site.com on one nameserver,
// beside a sibling zone the same server hosts, and clients in two countries.
type memoFixture struct {
	p      *Provider
	hz     *HostedZone
	ns     *Nameserver
	r      *authority.Regional
	us, de netip.Addr
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	w := newWorld(t)
	w.registerDomain(t, "cdn-site.com")
	w.registerDomain(t, "sibling.com")
	p := w.mustProvider(t, PresetCloudflare())
	p.OpenAccount("owner", false)
	hz, err := p.CreateZone("owner", "cdn-site.com")
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []string{
		"cdn-site.com 300 IN A 99.99.99.99",
		"cdn-site.com 300 IN TXT \"v=spf1 -all\"",
		"www.cdn-site.com 300 IN CNAME cdn-site.com",
		"sib.cdn-site.com 300 IN CNAME sibling.com",
		"deleg.cdn-site.com 300 IN NS ns.deleg.cdn-site.com",
		"ns.deleg.cdn-site.com 300 IN A 192.0.2.53",
	} {
		if err := hz.Zone.Add(dns.MustParseRR(rr)); err != nil {
			t.Fatal(err)
		}
	}
	sib, err := p.CreateZone("owner", "sibling.com")
	if err != nil {
		t.Fatal(err)
	}
	sib.Zone.MustAdd("sibling.com", 300, &dns.A{Addr: netip.MustParseAddr("192.0.2.80")})
	ns := hz.NS[0]
	if !ns.srv.HasZone("sibling.com") {
		t.Fatal("the account's zones do not share a nameserver")
	}
	return &memoFixture{
		p: p, hz: hz, ns: ns, r: ns.srv.WithEdges(p.edgeFor),
		us: w.ipdb.MustAllocate(w.ipdb.RegisterAS("US-EYEBALL", "US", 1)),
		de: w.ipdb.MustAllocate(w.ipdb.RegisterAS("DE-EYEBALL", "DE", 1)),
	}
}

// memoQuestions are asked at every step: hits, an in-zone CNAME chain,
// NXDOMAIN, NoData, a sibling-zone CNAME, a referral, and a child-zone name.
var memoQuestions = []dns.Question{
	{Name: "cdn-site.com", Type: dns.TypeA}, {Name: "cdn-site.com", Type: dns.TypeTXT},
	{Name: "www.cdn-site.com", Type: dns.TypeA}, {Name: "missing.cdn-site.com", Type: dns.TypeA},
	{Name: "cdn-site.com", Type: dns.TypeMX}, {Name: "sib.cdn-site.com", Type: dns.TypeA},
	{Name: "x.deleg.cdn-site.com", Type: dns.TypeA}, {Name: "a.child.cdn-site.com", Type: dns.TypeA},
}

// ask asks every question from both clients twice — the first fills the
// memo, the second reads it — and holds each wire reply to the message
// path's bytes.
func (f *memoFixture) ask(t *testing.T, step string) {
	t.Helper()
	for _, question := range memoQuestions {
		q := dns.NewQuery(0x4242, question.Name, question.Type)
		q.Header.RecursionDesired = true
		raw, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []netip.Addr{f.us, f.de} {
			want := dnsio.ServeRaw(dnsio.ResponderFunc(f.r.HandleQuery), src, raw, dnsio.ViaUDP)
			for round := 0; round < 2; round++ {
				got, handled := f.r.AppendWire(nil, src, raw, dnsio.ViaUDP)
				if !handled {
					t.Fatalf("%s: %s %s declined", step, question.Name, question.Type)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %s %s from %s, round %d: wire reply differs from the message path\n got: %x\nwant: %x",
						step, question.Name, question.Type, src, round, got, want)
				}
			}
		}
	}
}

// TestZoneMemoFollowsMutation: after each change that can alter an answer —
// a record added, an RRset removed (a name's last one too), a child zone
// attached and detached, the zone marked geo-distributed — the next wire
// reply equals the message path's. A sibling-zone CNAME and a referral are never memoized.
func TestZoneMemoFollowsMutation(t *testing.T) {
	f := newMemoFixture(t)
	z := f.hz.Zone
	f.ask(t, "fresh")
	if n, _ := z.MemoSize(); n == 0 {
		t.Fatal("nothing memoized: the test would not see a stale memo")
	}

	for _, step := range []struct {
		name   string
		mutate func()
	}{
		{"Add", func() { z.MustAdd("cdn-site.com", 300, &dns.A{Addr: netip.MustParseAddr("99.99.99.98")}) }},
		{"Add in a chain", func() { z.MustAdd("missing.cdn-site.com", 300, &dns.A{Addr: netip.MustParseAddr("99.99.99.97")}) }},
		{"RemoveRRset", func() { z.RemoveRRset("cdn-site.com", dns.TypeTXT) }},
		{"RemoveRRset of a name's last type", func() { z.RemoveRRset("missing.cdn-site.com", dns.TypeA) }},
		{"AddZone", func() {
			child := zone.New("child.cdn-site.com")
			child.MustAdd("a.child.cdn-site.com", 300, &dns.A{Addr: netip.MustParseAddr("192.0.2.90")})
			if err := f.ns.srv.AddZone(child); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveZone", func() { f.ns.srv.RemoveZone("child.cdn-site.com") }},
		{"MarkGeoDistributed", func() { f.p.MarkGeoDistributed(f.hz) }},
		{"Add while geo-distributed", func() { z.MustAdd("cdn-site.com", 300, &dns.A{Addr: netip.MustParseAddr("99.99.99.96")}) }},
		{"RemoveZone of the memoized zone", func() { f.ns.srv.RemoveZone("cdn-site.com") }},
		{"AddZone of the memoized zone", func() {
			if err := f.ns.srv.AddZone(z); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		step.mutate()
		f.ask(t, step.name)
	}

	// The sibling hop and the referral depend on more than the zone.
	before, _ := z.MemoSize()
	for _, name := range []dns.Name{"sib.cdn-site.com", "x.deleg.cdn-site.com", "y.deleg.cdn-site.com"} {
		raw, err := dns.NewQuery(1, name, dns.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, handled := f.r.AppendWire(nil, f.us, raw, dnsio.ViaUDP); !handled {
			t.Fatalf("%s declined", name)
		}
	}
	if after, _ := z.MemoSize(); after != before {
		t.Errorf("a sibling-zone CNAME or a referral was memoized: %d entries, %d before", after, before)
	}
}

// TestWireAnswerAllocs pins a memoized answer at zero heap objects: a
// geo-distributed zone's A answer from a DE client, and a plain TXT answer,
// each asked again once the first ask memoized it.
func TestWireAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	f := newMemoFixture(t)
	f.p.MarkGeoDistributed(f.hz)
	buf := make([]byte, 0, dns.MaxUDPSize)
	for _, question := range []dns.Question{{Name: "www.cdn-site.com", Type: dns.TypeA}, {Name: "cdn-site.com", Type: dns.TypeTXT}} {
		raw, err := dns.NewQuery(7, question.Name, question.Type).Pack()
		if err != nil {
			t.Fatal(err)
		}
		f.r.AppendWire(buf, f.de, raw, dnsio.ViaUDP) // fills the memo
		before, _ := f.hz.Zone.MemoSize()
		if allocs := testing.AllocsPerRun(200, func() {
			if _, handled := f.r.AppendWire(buf, f.de, raw, dnsio.ViaUDP); !handled {
				t.Fatal("the answer was not given in wire form")
			}
		}); allocs != 0 {
			t.Errorf("%s %s: %v allocs per memoized answer, want 0", question.Name, question.Type, allocs)
		}
		if after, _ := f.hz.Zone.MemoSize(); after != before || after == 0 {
			t.Errorf("%s %s: memo held %d entries, then %d: the answers were not read from it", question.Name, question.Type, before, after)
		}
	}
}
