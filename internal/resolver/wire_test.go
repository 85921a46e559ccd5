package resolver

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// TestOpenResolverWireAllocs pins an open resolver's cached answer in wire
// form at zero heap objects: the cache is looked up by the key of the query's
// wire question, and the reply is the stored wire form behind a new header
// word, with no name converted and no message built or packed. It must equal
// the message path's bytes.
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
	}); allocs != 0 {
		t.Errorf("%v allocs per cached answer in wire form, want 0", allocs)
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
	uncached.Resolver().DisableCaches()
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
						t.Errorf("%s, %s, uncached %v, round %d:\n got: %x\nwant: %x",
							step, c.name, o.Resolver().uncached, round, got, want)
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

// wireQuery packs a plain RD query for (name, typ).
func wireQuery(t *testing.T, name dns.Name, typ dns.Type) []byte {
	t.Helper()
	q := dns.NewQuery(0x0C0C, name, typ)
	q.Header.RecursionDesired = true
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestQuestionKeyCollisionIsAMiss gives a question the pool id of another
// question, whose answer the resolver caches under it — what two questions
// whose keys collide leave behind. Resolve and AppendWire must both take the
// entry for a miss, resolve, and answer the question asked, as a resolver
// that caches nothing does.
func TestQuestionKeyCollisionIsAMiss(t *testing.T) {
	w := buildWorld(t)
	ctx := context.Background()
	asn := w.ipdb.RegisterAS("OPENRES", "JP", 1)
	roots := []netip.Addr{w.reg.RootAddr()}
	o, err := NewOpenResolver(w.fabric, w.ipdb.MustAllocate(asn), "JP", roots)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewOpenResolver(w.fabric, w.ipdb.MustAllocate(asn), "JP", roots)
	if err != nil {
		t.Fatal(err)
	}
	ref.Resolver().DisableCaches()
	if _, err := o.Resolver().Resolve(ctx, "example.com", dns.TypeA); err != nil {
		t.Fatal(err)
	}
	id := o.rec.questionID(questionKey(dns.Name("example.com"), dns.TypeA))
	other := o.rec.cache[id]
	if other.answer == 0 {
		t.Fatal("example.com A not cached")
	}
	for _, asked := range []dns.Question{
		{Name: "example.com", Type: dns.TypeTXT, Class: dns.ClassINET},   // same name, another type
		{Name: "ext.example.com", Type: dns.TypeA, Class: dns.ClassINET}, // another name, same type
	} {
		if got, _ := o.rec.shared.ids.LoadOrStore(questionKey(asked.Name, asked.Type), id); got != id {
			t.Fatalf("%v already has id %d", asked, got)
		}
		// Resolving asked caches its own answer under the shared id.
		plant := func() {
			o.rec.cacheMu.Lock()
			o.rec.cache[id] = other
			o.rec.cacheMu.Unlock()
		}
		want, err := ref.Resolver().Resolve(ctx, asked.Name, asked.Type)
		if err != nil {
			t.Fatal(err)
		}
		plant()
		got, err := o.Resolver().Resolve(ctx, asked.Name, asked.Type)
		if err != nil {
			t.Fatal(err)
		}
		if got.Question() != asked || !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Errorf("Resolve %v over a colliding entry: question %v, answers %v; want %v", asked, got.Question(), got.Answers, want.Answers)
		}
		raw := wireQuery(t, asked.Name, asked.Type)
		wantWire, _ := ref.AppendWire(nil, w.site, raw, dnsio.ViaUDP)
		plant()
		gotWire, handled := o.AppendWire(nil, w.site, raw, dnsio.ViaUDP)
		if !handled || !bytes.Equal(gotWire, wantWire) {
			t.Errorf("AppendWire %v over a colliding entry:\n got: %x\nwant: %x", asked, gotWire, wantWire)
		}
	}
}

// TestResolveAndAppendWireShareOneEntry: the key an open resolver derives
// from a query's wire question, in whatever case the query spells it, is the
// key Resolve derives from the dns.Name, so whichever asks first, the other is
// answered from that one entry — no exchange, and the cache does not grow.
func TestResolveAndAppendWireShareOneEntry(t *testing.T) {
	for _, wireFirst := range []bool{false, true} {
		w := buildWorld(t)
		o, err := NewOpenResolver(w.fabric, w.ipdb.MustAllocate(w.ipdb.RegisterAS("OPENRES", "JP", 1)), "JP",
			[]netip.Addr{w.reg.RootAddr()})
		if err != nil {
			t.Fatal(err)
		}
		raw := wireQuery(t, "www.example.com", dns.TypeA)
		q := raw[12 : len(raw)-4] // the question name: length octets stay below 'a'
		copy(q, bytes.ToUpper(q))
		viaWire := func() {
			reply, handled := o.AppendWire(nil, w.site, raw, dnsio.ViaUDP)
			if want := dnsio.ServeRaw(dnsio.ResponderFunc(o.HandleQuery), w.site, raw, dnsio.ViaUDP); !handled || !bytes.Equal(reply, want) {
				t.Errorf("wire reply %x, message path %x", reply, want)
			}
		}
		viaResolve := func() {
			addrs, err := o.Resolver().LookupA(context.Background(), "www.example.com")
			if err != nil || len(addrs) != 1 || addrs[0] != w.site {
				t.Errorf("LookupA: %v, %v", addrs, err)
			}
		}
		first, second := viaResolve, viaWire
		if wireFirst {
			first, second = viaWire, viaResolve
		}
		first()
		size, exchanges := o.Resolver().CacheSize(), w.fabric.Exchanges()
		second()
		if got := w.fabric.Exchanges() - exchanges; got != 0 {
			t.Errorf("wire first %v: the second ask made %d exchanges", wireFirst, got)
		}
		if got := o.Resolver().CacheSize(); got != size {
			t.Errorf("wire first %v: cache grew from %d to %d entries", wireFirst, size, got)
		}
	}
}
