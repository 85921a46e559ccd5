package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// TestCachedAnswersSurviveLentReplies: the serve loop lends each query one
// reply and reuses it for the next, and an open resolver assigns the section
// slices of its cached — pool-wide, immutable — answers straight into the
// reply it is handed. The next user of that reply may be a handler that
// appends, so a reply whose sections were truncated for reuse instead of
// dropped would have the append land in the cache. A thousand cached questions
// answered over the wire, each followed by an exchange with an appending
// authority through the same pooled query, must leave every stored message
// exactly as it was.
func TestCachedAnswersSurviveLentReplies(t *testing.T) {
	w := buildWorld(t)
	ctx := context.Background()
	asn := w.ipdb.RegisterAS("MANY", "US", 1)
	nsAddr := w.ipdb.MustAllocate(asn)
	// An authority for many.com: i%3+1 address records for n<i>.many.com,
	// appended to the reply one by one.
	many := dnsio.ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		r.Header.Authoritative = true
		var i int
		if _, err := fmt.Sscanf(string(q.Question().Name), "n%d.many.com", &i); err != nil || q.Question().Type != dns.TypeA {
			return r
		}
		for k := 0; k <= i%3; k++ {
			r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 300,
				Data: &dns.A{Addr: netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})}})
		}
		return r
	})
	if _, err := dnsio.AttachSim(w.fabric, nsAddr, many); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("many.com", []dns.Name{"ns.many.com"},
		map[dns.Name]netip.Addr{"ns.many.com": nsAddr}, time.Now()); err != nil {
		t.Fatal(err)
	}
	oAddr := w.ipdb.MustAllocate(w.ipdb.RegisterAS("OPENRES", "JP", 1))
	o, err := NewOpenResolver(w.fabric, oAddr, "JP", []netip.Addr{w.reg.RootAddr()})
	if err != nil {
		t.Fatal(err)
	}
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: w.ipdb.MustAllocate(asn)})
	resolver, authority := netip.AddrPortFrom(oAddr, dnsio.DNSPort), netip.AddrPortFrom(nsAddr, dnsio.DNSPort)
	name := func(i int) dns.Name { return dns.Name(fmt.Sprintf("n%d.many.com", i)) }

	const n = 1000
	for i := 0; i < n; i++ {
		if resp, err := c.Query(ctx, resolver, name(i), dns.TypeA); err != nil || len(resp.Answers) != i%3+1 {
			t.Fatalf("filling the cache, %s: %v %v", name(i), resp, err)
		}
	}
	stored := *o.rec.shared.answers.Load()
	if len(stored) < n {
		t.Fatalf("%d responses stored for %d questions", len(stored), n)
	}
	before := make([]*dns.Message, len(stored))
	for i, m := range stored {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if before[i], err = dns.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before[i], m) {
			t.Fatalf("stored response %d does not survive a round trip:\n%s\n%s", i, m.Summary(), before[i].Summary())
		}
	}

	upstream := w.fabric.QueriesTo(nsAddr)
	for i := 0; i < n; i++ {
		if resp, err := c.Query(ctx, resolver, name(i), dns.TypeA); err != nil || len(resp.Answers) != i%3+1 {
			t.Fatalf("cached %s: %v %v", name(i), resp, err)
		}
		// The same goroutine, so the same pooled query and the same lent reply.
		other := (i*7 + 2) % n
		if resp, err := c.Query(ctx, authority, name(other), dns.TypeA); err != nil || len(resp.Answers) != other%3+1 {
			t.Fatalf("authority for %s: %v %v", name(other), resp, err)
		}
	}
	if got := w.fabric.QueriesTo(nsAddr) - upstream; got != n {
		t.Errorf("the authority saw %d queries, want only the %d sent to it directly: the resolver's answers were not cached", got, n)
	}
	for i, m := range *o.rec.shared.answers.Load() {
		if i < len(before) && !reflect.DeepEqual(before[i], m) {
			t.Errorf("stored response %d changed under the serve loop's reply:\n%s\nwas\n%s", i, m.Summary(), before[i].Summary())
		}
	}
}
