package urwatch

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
)

// Tests of the wire answer path's own properties. Its bytes are pinned by the
// DNSBL grid in flatparity_test.go and by FuzzZoneServeRaw.

var wireSrc = netip.MustParseAddr("10.9.9.9")

// ednsQuery packs a question the way resolvers send it: RD set, one OPT.
func ednsQuery(t testing.TB, name dns.Name, typ dns.Type) []byte {
	return wireQuery(t, 7, name, typ, wireShapes[0])
}

// hotQueries are the four answers the daemon spends its time on.
func hotQueries(t testing.TB) map[string][]byte {
	rev, _ := ReverseIPName(netip.MustParseAddr("198.51.100.7"), testApex)
	return map[string][]byte{
		"NXDOMAIN":   ednsQuery(t, DomainName("clean.test", testApex), dns.TypeA),
		"listed A":   ednsQuery(t, DomainName("evil.test", testApex), dns.TypeA),
		"listed TXT": ednsQuery(t, DomainName("evil.test", testApex), dns.TypeTXT),
		"address A":  ednsQuery(t, rev, dns.TypeA),
	}
}

// TestAppendWireAllocatesNothing: with the counters on, an answer rendered
// into a buffer with room costs no allocation.
func TestAppendWireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	z := newTestResponder(testStore(t))
	z.Metrics = NewMetrics()
	buf := make([]byte, 0, dns.MaxEDNS0Size)
	for what, raw := range hotQueries(t) {
		if allocs := testing.AllocsPerRun(200, func() {
			if out, handled := z.AppendWire(buf, wireSrc, raw, dnsio.ViaUDP); !handled || len(out) == 0 {
				t.Fatalf("%s: not answered in wire form", what)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per answer, want 0", what, allocs)
		}
	}
}

// counterSum reads every counter family a query may move: [queries by zone,
// queries by transport, refused by zone, refused by transport, nxdomain,
// latency samples].
func counterSum(m *Metrics) [6]int64 {
	var s [6]int64
	for l := ZoneLabel(0); l < nZoneLabels; l++ {
		s[0] += m.queries[l].Load()
		s[2] += m.refused[l].Load()
		s[4] += m.nxdomain[l].Load()
	}
	for l := TransportLabel(0); l < nTransportLabels; l++ {
		s[1] += m.tQueries[l].Load()
		s[3] += m.tRefused[l].Load()
	}
	s[5] = m.DNS.Count()
	return s
}

// TestOneTokenOneCount: whichever path answers, a query spends one limiter
// token and moves each counter family once, under the same labels — a hot
// shape the wire path takes, and one it declines to the message path, over
// ServeRaw and over HandleQuery alike.
func TestOneTokenOneCount(t *testing.T) {
	hot := DomainName("evil.test", testApex)
	declined := "gen." + testApex
	for _, tc := range []struct {
		what string
		name dns.Name
		zone ZoneLabel
	}{{"hot shape", hot, ZoneUrwatch}, {"declined shape", declined, ZoneMeta}} {
		for _, viaMessage := range []bool{false, true} {
			clk := newVirtualClock()
			z := newTestResponder(testStore(t))
			z.Metrics = NewMetrics()
			z.Limiter = NewRateLimiter(1, 1, clk.read)
			raw := ednsQuery(t, tc.name, dns.TypeTXT)
			askOnce := func() dns.RCode {
				if viaMessage {
					q, err := dns.Unpack(raw)
					if err != nil {
						t.Fatal(err)
					}
					return z.HandleQuery(wireSrc, q).Header.RCode
				}
				return dns.RCode(dnsio.ServeRaw(z, wireSrc, raw, dnsio.ViaUDP)[3] & 0x0F)
			}
			// The one token answers the first query; the second finds the
			// bucket empty, which it would not had the first spent none, and
			// REFUSED is what a first query that spent two would have got.
			if rcode := askOnce(); rcode != dns.RCodeSuccess {
				t.Fatalf("%s (message API %v): first query rcode %s", tc.what, viaMessage, rcode)
			}
			if got, want := counterSum(z.Metrics), [6]int64{1, 1, 0, 0, 0, 1}; got != want {
				t.Errorf("%s (message API %v): counters after one answer %v, want %v", tc.what, viaMessage, got, want)
			}
			if rcode := askOnce(); rcode != dns.RCodeRefused {
				t.Fatalf("%s (message API %v): second query rcode %s, want REFUSED", tc.what, viaMessage, rcode)
			}
			if got, want := counterSum(z.Metrics), [6]int64{2, 2, 1, 1, 0, 2}; got != want {
				t.Errorf("%s (message API %v): counters after a refusal %v, want %v", tc.what, viaMessage, got, want)
			}
			if got := z.Metrics.queries[tc.zone].Load(); got != 2 {
				t.Errorf("%s (message API %v): %d queries under zone %s, want 2", tc.what, viaMessage, got, tc.zone)
			}
			if got := z.Metrics.tQueries[TransportUDP].Load(); got != 2 {
				t.Errorf("%s (message API %v): %d queries under transport udp, want 2", tc.what, viaMessage, got)
			}
		}
	}
	// A query the wire path declines has touched nothing when it does.
	z := newTestResponder(testStore(t))
	z.Metrics = NewMetrics()
	z.Limiter = NewRateLimiter(1, 1, newVirtualClock().read)
	if _, handled := z.AppendWire(nil, wireSrc, ednsQuery(t, declined, dns.TypeTXT), dnsio.ViaUDP); handled {
		t.Fatal("the wire path took a gen. question")
	}
	if got := counterSum(z.Metrics); got != [6]int64{} {
		t.Errorf("counters after a declined query %v, want none moved", got)
	}
	if !z.Limiter.Allow(wireSrc) {
		t.Error("a declined query spent the limiter token")
	}
}

// longDomain returns a valid domain of exactly n octets.
func longDomain(n int) dns.Name {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		l := min(40, n-b.Len())
		if n-b.Len()-l == 1 { // never leave room for a dot and nothing after it
			l--
		}
		b.WriteString(strings.Repeat("a", l))
	}
	return dns.Name(b.String())
}

// txtLines joins each TXT answer's character-strings back into its line.
func txtLines(t *testing.T, rrs []dns.RR) []string {
	t.Helper()
	var lines []string
	for _, rr := range rrs {
		if txt, ok := rr.Data.(*dns.TXT); ok {
			lines = append(lines, txt.Joined())
		}
	}
	return lines
}

// TestLongDomainsServeAndTransfer: a swept domain long enough that its
// evidence line passes 255 octets still answers TXT, and one so long that it
// has no owner name under urwatch.<apex> is left out of the transfer instead
// of taking the daemon down; both stay reachable by address and mirror.
func TestLongDomainsServeAndTransfer(t *testing.T) {
	d228, d246 := longDomain(228), longDomain(246)
	if err := DomainName(d228, testApex).Validate(); err != nil {
		t.Fatalf("the 228-octet domain should still have an owner name: %v", err)
	}
	if err := DomainName(d246, testApex).Validate(); err == nil {
		t.Fatal("the 246-octet domain should have no representable owner name")
	}
	s := NewStore()
	s.SetPolicy(StalenessPolicy{Retain: 4})
	s.Publish(sealGen(1,
		mkUR(string(d228), "192.0.2.1", core.CategoryMalicious, "198.51.100.28"),
		mkUR(string(d246), "192.0.2.1", core.CategoryUnknown, "198.51.100.46"),
		mkUR("short.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.46"),
	))
	z := newTestResponder(s)
	z.XferACL = mustACL("127.0.0.0/8")
	srv := dnsio.NewServer(z)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// By urbl name over UDP: NOERROR, the evidence intact once joined.
	udp := &dnsio.NetTransport{}
	for _, tc := range []struct {
		ip     string
		domain dns.Name
		lines  int
	}{{"198.51.100.28", d228, 2}, {"198.51.100.46", d246, 3}} {
		name, _ := ReverseIPName(netip.MustParseAddr(tc.ip), testApex)
		q := dns.NewQuery(7, name, dns.TypeTXT)
		q.Additional = append(q.Additional, dns.RR{Class: dns.MaxEDNS0Size, Data: &dns.OPT{}})
		packed, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := udp.Exchange(ctx, nil, srv.UDPAddr(), packed, false)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dns.Unpack(raw)
		if err != nil || resp.Header.ID != q.Header.ID {
			t.Fatalf("%s TXT: reply %v, %v", name, resp, err)
		}
		if resp.Header.RCode != dns.RCodeSuccess || resp.Header.Truncated {
			t.Fatalf("%s TXT: rcode %s tc %v", name, resp.Header.RCode, resp.Header.Truncated)
		}
		lines := txtLines(t, resp.Answers)
		if len(lines) != tc.lines {
			t.Fatalf("%s TXT: %d lines, want %d: %q", name, len(lines), tc.lines, lines)
		}
		want := " A " + string(tc.domain) + ". @192.0.2.1 (TestDNS)"
		if !strings.HasSuffix(lines[1], want) || len(lines[1]) <= 255 {
			t.Errorf("%s TXT evidence = %q (%d octets), want one line over 255 octets ending %q", name, lines[1], len(lines[1]), want)
		}
	}

	// AXFR: no panic, no broken stream; the 228-octet domain's block is
	// there, the 246-octet one's is not, and both addresses are.
	res := transfer(t, srv.TCPAddr(), dns.TypeAXFR, 0)
	owners := map[dns.Name]bool{}
	for _, rr := range res.Records {
		owners[rr.Name] = true
		if err := rr.Name.Validate(); err != nil {
			t.Errorf("transfer carries owner %q: %v", rr.Name, err)
		}
	}
	rev28, _ := ReverseIPName(netip.MustParseAddr("198.51.100.28"), testApex)
	rev46, _ := ReverseIPName(netip.MustParseAddr("198.51.100.46"), testApex)
	for name, want := range map[dns.Name]bool{
		DomainName(d228, testApex): true, DomainName(d246, testApex): false,
		DomainName("short.test", testApex): true, rev28: true, rev46: true,
	} {
		if owners[name] != want {
			t.Errorf("transfer has owner %.40s…: %v, want %v", name, owners[name], want)
		}
	}
	m := new(Mirror)
	if err := m.Apply(res); err != nil {
		t.Fatalf("mirror refused the transfer: %v", err)
	}
	if m.Serial() != 1 || !strings.Contains(zoneText(m), string(d228)+".") {
		t.Errorf("mirror at serial %d without the long domain's evidence", m.Serial())
	}

	// The next generation drops the longest domain: the IXFR delta is
	// computed and applied without its block ever having been in the zone.
	s.Publish(sealGen(2,
		mkUR(string(d228), "192.0.2.1", core.CategoryMalicious, "198.51.100.28"),
		mkUR("short.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.46"),
	))
	if err := m.Apply(transfer(t, srv.TCPAddr(), dns.TypeIXFR, m.Serial())); err != nil {
		t.Fatalf("mirror refused the delta: %v", err)
	}
	fresh := new(Mirror)
	if err := fresh.Apply(transfer(t, srv.TCPAddr(), dns.TypeAXFR, 0)); err != nil {
		t.Fatal(err)
	}
	if zoneText(m) != zoneText(fresh) {
		t.Error("AXFR-then-IXFR mirror differs from a fresh AXFR")
	}
}

// TestEvidenceOctetsRoundTrip: a provider name with a quote, a backslash and a
// control octet is served byte for byte, by query and by transfer.
func TestEvidenceOctetsRoundTrip(t *testing.T) {
	const provider = "Acme \"DNS\" \\ Hosting\x01"
	v := mkUR("odd.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.9")
	v.Server.Provider = provider
	s := NewStore()
	s.Publish(sealGen(1, v))
	z := newTestResponder(s)
	want := "unknown A odd.test. @192.0.2.1 (" + provider + ")"

	raw := ednsQuery(t, DomainName("odd.test", testApex), dns.TypeTXT)
	for _, r := range []dnsio.Responder{z, messagePathOnly(z, dnsio.ViaUDP)} {
		resp, err := dns.Unpack(dnsio.ServeRaw(r, wireSrc, raw, dnsio.ViaUDP))
		if err != nil {
			t.Fatal(err)
		}
		if lines := txtLines(t, resp.Answers); len(lines) != 2 || lines[1] != want {
			t.Errorf("served evidence %q, want %q", lines, want)
		}
	}
	block := z.blockRRs(DomainName("odd.test", testApex), s.Current().Domain("odd.test"))
	if lines := txtLines(t, block); len(lines) != 1 || lines[0] != want {
		t.Errorf("transferred evidence %q, want %q", lines, want)
	}
}

// fuzzZone is the small sealed generation FuzzZoneServeRaw answers from.
func fuzzZone() *ZoneResponder {
	urs := []*core.UR{
		mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7"),
		mkUR("evil.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.8"),
		mkUR("shady.test", "2001:db8::53", core.CategoryUnknown, "203.0.113.9"),
		mkUR(string(longDomain(228)), "192.0.2.1", core.CategoryProtective, "203.0.113.9"),
	}
	for i := 0; i < maxTXTEvidence+2; i++ {
		urs = append(urs, mkUR("many.test", fmt.Sprintf("192.0.2.%d", 10+i), core.CategoryUnknown, "198.51.100.200"))
	}
	s := NewStore()
	s.Publish(sealGen(3, urs...))
	return &ZoneResponder{Apex: testApex, Store: s, XferACL: mustACL("10.1.0.0/16"), Metrics: NewMetrics()}
}

// FuzzZoneServeRaw holds the wire answer path to the message path on
// arbitrary datagrams: serving the responder as the daemon does must equal
// serving it with only its message API visible, byte for byte, "no reply"
// and FORMERR included. That is what keeps the hand-written question and OPT
// parser inside UnpackFrom's accept set, and the two truncation rules in
// step.
func FuzzZoneServeRaw(f *testing.F) {
	vias := []string{dnsio.ViaUDP, dnsio.ViaTCP, dnsio.ViaDoH}
	rev := func(ip string) dns.Name {
		name, _ := ReverseIPName(netip.MustParseAddr(ip), testApex)
		return name
	}
	id := uint16(0)
	for _, name := range []dns.Name{
		DomainName("evil.test", testApex), DomainName("many.test", testApex), DomainName("clean.test", testApex),
		DomainName(longDomain(228), testApex), rev("198.51.100.7"), rev("198.51.100.200"), rev("192.0.2.250"),
		"1.2.3.urbl." + testApex, "01.2.3.4.urbl." + testApex, "256.1.1.1.urbl." + testApex,
		testApex, "gen." + testApex, "urbl." + testApex, "ns." + testApex, "*.urwatch." + testApex, "elsewhere.test",
	} {
		for _, typ := range []dns.Type{dns.TypeA, dns.TypeTXT, dns.TypeAAAA, dns.TypeANY, dns.TypeSOA, dns.TypeAXFR, dns.TypeIXFR} {
			for i, sh := range wireShapes {
				id++
				raw := wireQuery(f, id, name, typ, sh)
				f.Add(raw, uint8(i))
			}
		}
	}
	// Shapes the wire path must leave alone.
	notify := dns.NewQuery(9, testApex, dns.TypeSOA)
	notify.Header.OpCode = dns.OpNotify
	class := dns.NewQuery(10, DomainName("evil.test", testApex), dns.TypeA)
	class.Questions[0].Class = dns.ClassCH
	two := dns.NewQuery(11, DomainName("evil.test", testApex), dns.TypeA)
	two.Questions = append(two.Questions, two.Questions[0])
	ixfr := dns.NewQuery(12, testApex, dns.TypeIXFR)
	ixfr.Authority = append(ixfr.Authority, dns.RR{Name: testApex, Class: dns.ClassINET, Data: &dns.SOA{Serial: 2}})
	twoOPT := dns.NewQuery(13, DomainName("evil.test", testApex), dns.TypeTXT)
	twoOPT.Additional = append(twoOPT.Additional, dns.RR{Class: 1232, Data: &dns.OPT{}}, dns.RR{Class: 512, Data: &dns.OPT{}})
	notOPT := dns.NewQuery(14, DomainName("evil.test", testApex), dns.TypeTXT)
	notOPT.Additional = append(notOPT.Additional, dns.RR{Name: testApex, Class: dns.ClassINET, Data: &dns.A{Addr: wireSrc}})
	ownedOPT := dns.NewQuery(15, DomainName("evil.test", testApex), dns.TypeTXT)
	ownedOPT.Additional = append(ownedOPT.Additional, dns.RR{Name: "x", Class: 1232, Data: &dns.OPT{Options: []byte{0, 10, 0, 1, 7}}})
	flagged := dns.NewQuery(16, DomainName("evil.test", testApex), dns.TypeA)
	flagged.Header.Authoritative = true
	for _, m := range []*dns.Message{notify, class, two, ixfr, twoOPT, notOPT, ownedOPT, flagged} {
		raw, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(0))
		f.Add(append(raw, 0), uint8(1))   // a trailing octet
		f.Add(raw[:len(raw)-1], uint8(2)) // a torn tail
	}
	// A compression pointer inside the question name, aimed at the header.
	f.Add([]byte{0, 17, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 'e', 'v', 'i', 'l', 0xC0, 4, 0, 1, 0, 1}, uint8(0))

	// Two responders over one store, so the limiter-free answers cannot
	// depend on which of the pair went first.
	z := fuzzZone()
	srcs := []netip.Addr{wireSrc, netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("::ffff:10.9.9.9")}
	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		via := vias[int(pick)%len(vias)]
		src := srcs[int(pick/4)%len(srcs)]
		got := dnsio.ServeRaw(z, src, raw, via)
		want := dnsio.ServeRaw(messagePathOnly(z, via), src, raw, via)
		if !bytes.Equal(got, want) {
			t.Fatalf("via %s: the wire path and the message path differ on %x\n got: %x\nwant: %x", via, raw, got, want)
		}
	})
}

// BenchmarkAppendWire times the wire answer path per answer shape, counters
// on, against one generation of n verdicts.
func BenchmarkAppendWire(b *testing.B) {
	const n = 60_000
	urs := make([]*core.UR, 0, n+1)
	for i := 0; i < n; i++ {
		ip := netip.AddrFrom4([4]byte{198, byte(18 + i>>16), byte(i >> 8), byte(i)})
		urs = append(urs, mkUR(fmt.Sprintf("d%06d.example.test", i), "192.0.2.1", core.CategoryUnknown, ip.String()))
	}
	urs = append(urs, mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7"))
	s := NewStore()
	s.Publish(SnapshotFromResult(&core.Result{URs: urs}, 1, s.Current().SweptAt))
	z := &ZoneResponder{Apex: testApex, Store: s, Metrics: NewMetrics()}
	buf := make([]byte, 0, dns.MaxEDNS0Size)
	for what, raw := range hotQueries(b) {
		b.Run(what, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, handled := z.AppendWire(buf, wireSrc, raw, dnsio.ViaUDP); !handled {
					b.Fatal("declined")
				}
			}
		})
	}
}
