package authority

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/zone"
)

// wireServer is a server over example.com and sub.example.org; with fallback
// set it answers unhosted A questions with a protective record and refuses
// the rest.
func wireServer(t testing.TB, fallback bool) *Server {
	t.Helper()
	s := NewServer()
	for origin, rrs := range map[dns.Name][]string{
		"example.com": {
			"example.com 3600 IN SOA ns1.hoster.net hostmaster.hoster.net 1 7200 3600 1209600 300",
			"www.example.com 300 IN A 203.0.113.10",
		},
		"sub.example.org": {"sub.example.org 300 IN TXT \"v=spf1 -all\""},
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
	for _, name := range []dns.Name{"www.example.com", "unhosted.test", "org", "example.org", "x.sub.example.org", long, dns.Root} {
		seeds = append(seeds, pack(q(name, dns.TypeA)), pack(q(name, dns.TypeTXT)))
	}
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

// FuzzAuthorityServeRaw is the wire refusal's differential test: over udp and
// tcp, for a server without a fallback and one with, a datagram the wire path
// answers must get the bytes the message path — the same server behind a
// responder that hides AppendWire — packs for it, and book exactly one query;
// one it declines must leave dst as it was and book nothing. A server with a
// fallback declines everything.
func FuzzAuthorityServeRaw(f *testing.F) {
	for _, raw := range wireSeeds(f) {
		f.Add(raw, uint8(0))
		f.Add(raw, uint8(1))
	}
	vias := []string{dnsio.ViaUDP, dnsio.ViaTCP}
	plain, guarded := wireServer(f, false), wireServer(f, true)
	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		via := vias[int(pick)%len(vias)]
		for _, s := range []*Server{plain, guarded} {
			dst := append(make([]byte, 0, 64), 0xA5, 0x5A)
			before := s.Queries()
			out, handled := s.AppendWire(dst, testSrc, raw, via)
			booked := s.Queries() - before
			if !handled {
				if booked != 0 || len(out) != len(dst) || cap(out) != cap(dst) || !bytes.Equal(out, dst[:2]) {
					t.Fatalf("declined %x but booked %d queries or changed dst to %x", raw, booked, out)
				}
				continue
			}
			if s == guarded {
				t.Fatalf("a server with a fallback answered %x in wire form", raw)
			}
			if booked != 1 {
				t.Fatalf("answered %x in wire form and booked %d queries, want 1", raw, booked)
			}
			want := dnsio.ServeRaw(dnsio.ResponderFunc(s.HandleQuery), testSrc, raw, via)
			if !bytes.Equal(out[:2], dst[:2]) || !bytes.Equal(out[2:], want) {
				t.Fatalf("via %s: the wire path and the message path differ on %x\n got: %x\nwant: %x", via, raw, out[2:], want)
			}
		}
	})
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
