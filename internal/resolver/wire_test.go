package resolver

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// TestOpenResolverWireAllocs pins an open resolver's cached answer in wire
// form at one heap object, the question name the resolution is keyed by: the
// reply is the stored wire form behind a new header word, with no message
// built or packed. It must equal the message path's bytes.
func TestOpenResolverWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w := buildWorld(t)
	oAddr := w.ipdb.MustAllocate(w.ipdb.RegisterAS("OPENRES", "JP", 1))
	o, err := NewOpenResolver(w.fabric, oAddr, "JP", []netip.Addr{w.reg.RootAddr()})
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(9, "www.example.com", dns.TypeA)
	q.Header.RecursionDesired = true
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, dns.MaxUDPSize)
	if _, handled := o.AppendWire(buf, w.site, raw, dnsio.ViaUDP); !handled { // fills the cache
		t.Fatal("a plain RD query was declined")
	}
	exchanges := w.fabric.Exchanges()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, handled := o.AppendWire(buf, w.site, raw, dnsio.ViaUDP); !handled {
			t.Fatal("a plain RD query was declined")
		}
	}); allocs > 1 {
		t.Errorf("%v allocs per cached answer in wire form, want at most 1", allocs)
	}
	if got := w.fabric.Exchanges() - exchanges; got != 0 {
		t.Errorf("cached answers made %d upstream exchanges", got)
	}
	got, _ := o.AppendWire(nil, w.site, raw, dnsio.ViaUDP)
	if want := dnsio.ServeRaw(dnsio.ResponderFunc(o.HandleQuery), w.site, raw, dnsio.ViaUDP); !bytes.Equal(got, want) {
		t.Errorf("wire reply %x, message path %x", got, want)
	}
}

// TestOpenResolverWireMatchesMessagePath holds an open resolver's wire
// replies to the message path's bytes where they are not the stored wire
// form behind a new header word: an answer too long for a plain UDP
// datagram (truncated) next to the same answer over EDNS0 and TCP (whole),
// NXDOMAIN, a failed resolution (SERVFAIL), and every one of them again from
// a resolver that caches nothing and so stores no wire form.
func TestOpenResolverWireMatchesMessagePath(t *testing.T) {
	w := buildWorld(t)
	for i := 0; i < 8; i++ {
		w.example.MustAddRR(fmt.Sprintf("big.example.com 300 IN TXT \"%d %s\"", i, strings.Repeat("x", 100)))
	}
	asn := w.ipdb.RegisterAS("OPENRES", "JP", 1)
	cached, err := NewOpenResolver(w.fabric, w.ipdb.MustAllocate(asn), "JP", []netip.Addr{w.reg.RootAddr()})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := NewOpenResolver(w.fabric, w.ipdb.MustAllocate(asn), "JP", []netip.Addr{w.reg.RootAddr()})
	if err != nil {
		t.Fatal(err)
	}
	uncached.Resolver().cacheLimit = 0
	query := func(name dns.Name, typ dns.Type, edns int) []byte {
		q := dns.NewQuery(0x0B0B, name, typ)
		q.Header.RecursionDesired = true
		if edns > 0 {
			q.Additional = append(q.Additional, dns.RR{Class: dns.Class(edns), Data: &dns.OPT{}})
		}
		raw, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := []struct {
		name string
		raw  []byte
		via  string
	}{
		{"too long for a datagram", query("big.example.com", dns.TypeTXT, 0), dnsio.ViaUDP},
		{"long over EDNS0", query("big.example.com", dns.TypeTXT, 4096), dnsio.ViaUDP},
		{"long over TCP", query("big.example.com", dns.TypeTXT, 0), dnsio.ViaTCP},
		{"NXDOMAIN", query("missing.example.com", dns.TypeA, 0), dnsio.ViaUDP},
		{"hit", query("www.example.com", dns.TypeA, 0), dnsio.ViaUDP},
	}
	check := func(step string) {
		t.Helper()
		for _, o := range []*OpenResolver{cached, uncached} {
			for _, c := range cases {
				// Twice: the first resolves, the second reads the cache.
				for round := 0; round < 2; round++ {
					got, handled := o.AppendWire(nil, w.site, c.raw, c.via)
					if !handled {
						t.Fatalf("%s, %s: declined", step, c.name)
					}
					want := dnsio.ServeRaw(dnsio.ResponderFunc(o.HandleQuery), w.site, c.raw, c.via)
					if !bytes.Equal(got, want) {
						t.Errorf("%s, %s, cache limit %d, round %d:\n got: %x\nwant: %x",
							step, c.name, o.Resolver().cacheLimit, round, got, want)
					}
				}
			}
		}
	}
	check("served")
	if reply := dnsio.ServeRaw(cached, w.site, cases[0].raw, dnsio.ViaUDP); reply[2]&0x02 == 0 {
		t.Error("TC clear on the long answer over UDP: the test does not reach the truncating path")
	}
	// With the example.com server gone, an uncached question fails.
	w.nsUp(false)
	cases = append(cases, struct {
		name string
		raw  []byte
		via  string
	}{"SERVFAIL", query("gone.example.com", dns.TypeA, 0), dnsio.ViaUDP})
	check("server down")
	if reply := dnsio.ServeRaw(cached, w.site, cases[len(cases)-1].raw, dnsio.ViaUDP); reply[3]&0x0F != byte(dns.RCodeServFail) {
		t.Errorf("rcode %d with the server down, want SERVFAIL", reply[3]&0x0F)
	}
}
