package authority

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/zone"
)

// wireServer is a server over example.com, sub.example.org and cdn.test;
// with fallback set it answers unhosted A questions with a protective record
// and refuses the rest. example.com holds every shape a hosted answer takes:
// a hit, a CNAME chain inside the zone, one into a sibling zone and one out
// of every zone, a wildcard, a referral with glue, a CNAME loop, and an
// answer too long for a 512-octet datagram.
func wireServer(t testing.TB, fallback bool) *Server {
	t.Helper()
	s := NewServer()
	big := make([]string, 8)
	for i := range big {
		big[i] = fmt.Sprintf("big.example.com 300 IN TXT \"%d %s\"", i, strings.Repeat("x", 100))
	}
	for origin, rrs := range map[dns.Name][]string{
		"example.com": append([]string{
			"example.com 3600 IN SOA ns1.hoster.net hostmaster.hoster.net 1 7200 3600 1209600 300",
			"www.example.com 300 IN A 203.0.113.10",
			"alias.example.com 300 IN CNAME www.example.com",
			"sib.example.com 300 IN CNAME x.sub.example.org",
			"out.example.com 300 IN CNAME www.elsewhere.invalid",
			"*.wild.example.com 300 IN A 203.0.113.11",
			"deleg.example.com 300 IN NS ns.deleg.example.com",
			"ns.deleg.example.com 300 IN A 203.0.113.12",
			"loop1.example.com 300 IN CNAME loop2.example.com",
			"loop2.example.com 300 IN CNAME loop1.example.com",
		}, big...),
		"sub.example.org": {"sub.example.org 300 IN TXT \"v=spf1 -all\"", "x.sub.example.org 300 IN A 203.0.113.13"},
		"cdn.test": {
			"cdn.test 3600 IN SOA ns1.hoster.net hostmaster.hoster.net 1 7200 3600 1209600 300",
			"www.cdn.test 300 IN A 192.0.2.1",
			"www.cdn.test 300 IN A 192.0.2.2",
			"alias.cdn.test 300 IN CNAME www.cdn.test",
		},
	} {
		z := zone.New(origin)
		for _, rr := range rrs {
			z.MustAddRR(rr)
		}
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	if fallback {
		s.SetFallback(func(_ netip.Addr, q *dns.Message) *dns.Message {
			if q.Question().Type != dns.TypeA {
				return nil
			}
			r := q.Reply()
			r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 300,
				Data: &dns.A{Addr: testSrc}})
			return r
		})
	}
	return s
}

// testEdges rewrites cdn.test's A answers to one of three edges by the
// client's last octet, and leaves them as they are for a fourth of clients.
func testEdges(z *zone.Zone, src netip.Addr) netip.Addr {
	if z.Origin() != "cdn.test" || src.As4()[3]%4 == 0 {
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte{198, 18, 0, src.As4()[3] % 4})
}

// wireSrcs are the clients the fuzzer asks from: one per testEdges outcome.
var wireSrcs = []netip.Addr{testSrc,
	netip.MustParseAddr("198.51.100.4"), netip.MustParseAddr("198.51.100.6"), netip.MustParseAddr("198.51.100.7")}

// wireSeeds are the datagrams the fuzzer starts from: every shape the wire
// path answers, and the ones next to it that it must leave to the message
// path.
func wireSeeds(t testing.TB) [][]byte {
	t.Helper()
	pack := func(m *dns.Message) []byte {
		raw, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	q := func(name dns.Name, typ dns.Type) *dns.Message {
		m := dns.NewQuery(0x1234, name, typ)
		m.Header.RecursionDesired = true
		return m
	}
	long := dns.Name(strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
		strings.Repeat("c", 63) + "." + strings.Repeat("d", 61)) // 253 octets
	var seeds [][]byte
	for _, name := range []dns.Name{"www.example.com", "unhosted.test", "org", "example.org", "x.sub.example.org", long, dns.Root,
		"alias.example.com", "sib.example.com", "out.example.com", "a.wild.example.com", "x.deleg.example.com",
		"loop1.example.com", "missing.example.com", "big.example.com", "www.cdn.test", "alias.cdn.test", "cdn.test"} {
		seeds = append(seeds, pack(q(name, dns.TypeA)), pack(q(name, dns.TypeTXT)))
	}
	bigOpt := q("big.example.com", dns.TypeTXT)
	bigOpt.Additional = append(bigOpt.Additional, dns.RR{Class: 1232, Data: &dns.OPT{}})
	upperHosted := pack(q("www.cdn.test", dns.TypeA))
	copy(upperHosted[12:], bytes.ToUpper(upperHosted[12:12+len("www.cdn.test")+1]))
	noRD := pack(q("www.example.com", dns.TypeA))
	noRD[2] &^= 1
	seeds = append(seeds, pack(bigOpt), upperHosted, noRD)
	upper := pack(q("unhosted.test", dns.TypeA))
	copy(upper[12:], bytes.ToUpper(upper[12:12+len("unhosted.test")+1]))
	opt := q("unhosted.test", dns.TypeTXT)
	opt.Additional = append(opt.Additional, dns.RR{Class: 1232, Data: &dns.OPT{}})
	cd := pack(q("unhosted.test", dns.TypeA))
	cd[3] |= 0x10
	ch := q("unhosted.test", dns.TypeA)
	ch.Questions[0].Class = dns.ClassCH
	two := q("unhosted.test", dns.TypeA)
	two.Questions = append(two.Questions, two.Questions[0])
	seeds = append(seeds, upper, pack(opt), cd, pack(ch), pack(two),
		append(pack(q("unhosted.test", dns.TypeA)), 0), // a trailing octet
		pack(q("unhosted.test", dns.TypeAXFR)),
		// A compression pointer inside the question name, aimed at the header.
		[]byte{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 't', 'e', 's', 't', 0xC0, 4, 0, 1, 0, 1},
		// A '*' label: Validate accepts it, the wire parser leaves it alone.
		[]byte{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, '*', 4, 't', 'e', 's', 't', 0, 0, 1, 0, 1},
	)
	return seeds
}

// FuzzAuthorityServeRaw is the wire path's differential test: over udp and
// tcp, from clients with and without a regional edge, for a server without a
// fallback, one with, and the first behind an Edges rewrite, a datagram the
// wire path answers must get the bytes the message path — the same responder
// behind one that hides AppendWire — packs for it, and book exactly one
// query; one it declines must leave dst as it was and book nothing. A server
// with a fallback never answers an unhosted name in wire form. Each datagram
// is asked with the memo as earlier inputs left it, again with another ID
// and RD flipped, after a mutation of the zone that holds its name, and after
// the mutation is undone — so a memoized answer is checked against the query
// that reads it and the zone it came from, before and after the zone changed.
func FuzzAuthorityServeRaw(f *testing.F) {
	for _, raw := range wireSeeds(f) {
		for pick := uint8(0); pick < 8; pick++ {
			f.Add(raw, pick, pick%4)
		}
	}
	vias := []string{dnsio.ViaUDP, dnsio.ViaTCP}
	plain, guarded := wireServer(f, false), wireServer(f, true)
	type responder interface {
		dnsio.Responder
		dnsio.WireResponder
	}
	servers := []struct {
		s *Server
		r responder
	}{{plain, plain}, {guarded, guarded}, {plain, plain.WithEdges(testEdges)}}
	// Warm the memo on every seed, from every client, before the first input.
	for _, raw := range wireSeeds(f) {
		for _, sv := range servers {
			for _, src := range wireSrcs {
				sv.r.AppendWire(nil, src, raw, dnsio.ViaTCP)
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, pick, mutation uint8) {
		via, src := vias[pick%2], wireSrcs[int(pick/2)%len(wireSrcs)]
		// The same datagram with another ID and RD flipped: what a memoized
		// answer takes from the query that reads it.
		other := bytes.Clone(raw)
		if len(other) >= 3 {
			other[0], other[2] = ^other[0], other[2]^1
		}
		for _, sv := range servers {
			check := func(when string, raw []byte) {
				dst := append(make([]byte, 0, 64), 0xA5, 0x5A)
				before := sv.s.Queries()
				out, handled := sv.r.AppendWire(dst, src, raw, via)
				booked := sv.s.Queries() - before
				if !handled {
					if booked != 0 || len(out) != len(dst) || cap(out) != cap(dst) || !bytes.Equal(out, dst[:2]) {
						t.Fatalf("%s: declined %x but booked %d queries or changed dst to %x", when, raw, booked, out)
					}
					return
				}
				if sv.s == guarded {
					if m, err := dns.Unpack(raw); err != nil || len(m.Questions) != 1 || zoneFor(sv.s, m.Question().Name) == nil {
						t.Fatalf("%s: a server with a fallback answered %x, no hosted name, in wire form", when, raw)
					}
				}
				if booked != 1 {
					t.Fatalf("%s: answered %x in wire form and booked %d queries, want 1", when, raw, booked)
				}
				want := dnsio.ServeRaw(dnsio.ResponderFunc(sv.r.HandleQuery), src, raw, via)
				if !bytes.Equal(out[:2], dst[:2]) || !bytes.Equal(out[2:], want) {
					t.Fatalf("%s, via %s from %s: the wire path and the message path differ on %x\n got: %x\nwant: %x",
						when, via, src, raw, out[2:], want)
				}
			}
			check("as the memo stands", raw)
			check("with another ID and RD", other)
			undo := mutate(t, sv.s, raw, mutation)
			check("after a mutation", raw)
			undo()
			check("after the mutation was undone", raw)
		}
	})
}

// mutate changes the zone of s that holds raw's question name, at that name,
// in one of three ways picked by kind — a record added, the question type's
// RRset removed, the name removed — and returns what puts it back. A fourth
// of kinds, and a datagram with no hosted question, change nothing.
func mutate(t *testing.T, s *Server, raw []byte, kind uint8) (undo func()) {
	m, err := dns.Unpack(raw)
	if err != nil || len(m.Questions) != 1 || kind%4 == 0 {
		return func() {}
	}
	name, qtype := m.Question().Name, m.Question().Type
	z := zoneFor(s, name)
	if z == nil {
		return func() {}
	}
	// What the name holds, type by type, in the order it was added.
	held := map[dns.Type][]dns.RR{}
	for _, rr := range z.Records() {
		if rr.Name == name {
			held[rr.Type()] = z.RRset(name, rr.Type())
		}
	}
	restore := func(typ dns.Type) {
		z.RemoveRRset(name, typ)
		for _, rr := range held[typ] {
			if err := z.Add(rr); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch kind % 4 {
	case 1:
		rr := dns.RR{Name: name, Class: dns.ClassINET, TTL: 30, Data: dns.NewTXT("mutated")}
		if qtype == dns.TypeA {
			rr.Data = &dns.A{Addr: netip.MustParseAddr("192.0.2.99")}
		}
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
		return func() { restore(rr.Type()) }
	case 2:
		z.RemoveRRset(name, qtype)
		return func() { restore(qtype) }
	default:
		z.RemoveName(name)
		return func() {
			for typ := range held {
				restore(typ)
			}
		}
	}
}

// TestWireRefusalAllocs pins the wire refusal at zero heap objects: no query
// is decoded, and the zone lookups key the map with the name in place. A
// caller that lends no buffer pays one, for the reply.
func TestWireRefusalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := wireServer(t, false)
	raw, err := dns.NewQuery(7, "no-zone-here.example.net", dns.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, dns.MaxUDPSize)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, handled := s.AppendWire(buf, testSrc, raw, dnsio.ViaUDP); !handled {
			t.Fatal("the refusal was not answered in wire form")
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per wire refusal, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.AppendWire(nil, testSrc, raw, dnsio.ViaUDP)
	}); allocs != 1 {
		t.Errorf("%v allocs per wire refusal into no buffer, want 1", allocs)
	}
}

// TestZoneMemoBounded: a wildcard zone asked about 100,000 names, as a server
// on a real socket can be, memoizes no more than zone.MemoCap replies, and
// every reply, memoized or not, is the message path's.
func TestZoneMemoBounded(t *testing.T) {
	s := NewServer()
	z := zone.New("wild.test")
	z.MustAddRR("wild.test 3600 IN SOA ns1.hoster.net hostmaster.hoster.net 1 7200 3600 1209600 300")
	z.MustAddRR("*.wild.test 300 IN A 203.0.113.20")
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	var buf []byte
	for i := 0; i < n; i++ {
		raw, err := dns.NewQuery(uint16(i), dns.Name(fmt.Sprintf("n%d.wild.test", i)), dns.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		// Each name twice: the second ask reads the memo while it has room.
		for round := 0; round < 2; round++ {
			var handled bool
			buf, handled = s.AppendWire(buf[:0], testSrc, raw, dnsio.ViaUDP)
			if !handled {
				t.Fatalf("n%d declined", i)
			}
			if want := dnsio.ServeRaw(dnsio.ResponderFunc(s.HandleQuery), testSrc, raw, dnsio.ViaUDP); !bytes.Equal(buf, want) {
				t.Fatalf("n%d, round %d: wire reply %x, message path %x", i, round, buf, want)
			}
		}
	}
	replies, octets := z.MemoSize()
	t.Logf("%d names: %d replies memoized, %d octets", n, replies, octets)
	if replies == 0 || replies > zone.MemoCap {
		t.Errorf("%d replies memoized, want 1 to %d", replies, zone.MemoCap)
	}
}
