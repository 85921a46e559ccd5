package dnsio

import (
	"bytes"
	"context"
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// scratchFixture attaches one nameserver that refuses "refused.*" names and
// answers every other A question with two records.
func scratchFixture(t *testing.T) (*Client, netip.AddrPort) {
	t.Helper()
	f := simnet.New(1)
	addr := netip.MustParseAddr("10.0.0.53")
	r := ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		reply := q.Reply()
		name := q.Question().Name
		if name.IsSubdomainOf("refused.test") {
			reply.Header.RCode = dns.RCodeRefused
			return reply
		}
		for _, a := range []string{"192.0.2.1", "192.0.2.2"} {
			reply.Answers = append(reply.Answers, dns.RR{Name: name, Class: dns.ClassINET, TTL: 60,
				Data: &dns.A{Addr: netip.MustParseAddr(a)}})
		}
		return reply
	})
	if _, err := AttachSim(f, addr, r); err != nil {
		t.Fatal(err)
	}
	c := NewClient(&SimTransport{Fabric: f, Src: netip.MustParseAddr("10.0.0.1")})
	c.SeedIDs(1)
	return c, netip.AddrPortFrom(addr, DNSPort)
}

// TestQueryIntoAllocBudget: a probe through a caller's scratch against a
// refusing nameserver costs what the server's side costs — its reply message
// and the query name it decodes — and nothing on the client's: no query
// message, no wire buffers, no response message, no name the scratch holds.
func TestQueryIntoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, server := scratchFixture(t)
	names := []dns.Name{"a.refused.test", "b.refused.test"}
	var s Scratch
	i := 0
	probe := func() {
		i++
		resp, wire, err := c.QueryInto(context.Background(), &s, server, names[i/2%2], dns.TypeA)
		if err != nil || resp.Header.RCode != dns.RCodeRefused || len(wire) < 12 {
			t.Fatalf("probe: %v, %v", resp, err)
		}
	}
	probe()
	if n := testing.AllocsPerRun(500, probe); n > 2 {
		t.Errorf("QueryInto allocates %.1f objects per probe, want <= 2", n)
	}
}

// TestQueryIntoMatchesQuery: the scratch path returns what the owned path
// returns, wire bytes included, and its result is replaced by the next probe.
func TestQueryIntoMatchesQuery(t *testing.T) {
	c, server := scratchFixture(t)
	var s Scratch
	for _, name := range []dns.Name{"x.example", "a.refused.test", "y.example", "y.example"} {
		c.SeedIDs(7)
		want, wantWire, err := c.QueryWire(context.Background(), server, name, dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		c.SeedIDs(7)
		got, wire, err := c.QueryInto(context.Background(), &s, server, name, dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wantWire) {
			t.Errorf("%s: wire % x, want % x", name, wire, wantWire)
		}
		if got.Summary() != want.Summary() {
			t.Errorf("%s: scratch decoded\n%s\nowned\n%s", name, got.Summary(), want.Summary())
		}
		if decoded, err := s.Decode(wantWire); err != nil || decoded != got {
			t.Errorf("%s: Decode did not land in the scratch's message: %v", name, err)
		}
	}
}

// TestQueryResultsAreOwned: Query, QueryWire and Exchange hand out messages
// (and bytes) no later exchange touches — the resolver caches what Query
// returns.
func TestQueryResultsAreOwned(t *testing.T) {
	c, server := scratchFixture(t)
	ctx := context.Background()
	first, err := c.Query(ctx, server, "one.example", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Query(ctx, server, "two.example", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if first == second || &first.Answers[0] == &second.Answers[0] || &first.Questions[0] == &second.Questions[0] {
		t.Fatal("two Query results share storage")
	}
	first.Questions[0].Name = "scribbled.example"
	first.Answers[0].Name, first.Answers[0].TTL = "scribbled.example", 1
	first.Answers[0].Data.(*dns.A).Addr = netip.MustParseAddr("203.0.113.9")
	first.Answers = first.Answers[:0]
	if second.Question().Name != "two.example" || len(second.Answers) != 2 ||
		second.Answers[0].Name != "two.example" || second.Answers[0].TTL != 60 ||
		second.Answers[0].Data.(*dns.A).Addr != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("mutating the first result changed the second: %+v", second)
	}

	msg, wire, err := c.QueryWire(ctx, server, "three.example", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]byte(nil), wire...)
	for i := 0; i < 8; i++ { // later exchanges, through every entry point
		if _, err := c.Query(ctx, server, "four.example", dns.TypeA); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exchange(ctx, server, dns.NewQuery(0, "five.example", dns.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wire, kept) || msg.Question().Name != "three.example" || len(msg.Answers) != 2 {
		t.Error("QueryWire's result was overwritten by a later exchange")
	}
}
