package dnsio

import (
	"bytes"
	"context"
	"net/netip"
	"runtime"
	"slices"
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
// refusing nameserver costs what the server's side costs — the query name it
// decodes, its reply being the serve loop's own — and nothing on the client's:
// no query message, no wire buffers, no response message, no name the scratch
// holds.
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
	if n := testing.AllocsPerRun(500, probe); n > 1 {
		t.Errorf("QueryInto allocates %.1f objects per probe, want <= 1", n)
	}
}

// TestQueryIntoMatchesQuery: the scratch path returns what the owned path
// returns — the decoded message and the wire bytes from the ID on (each path
// draws its ID from a scratch of its own) — and its result lands in the
// scratch's message, to be replaced by the next probe.
func TestQueryIntoMatchesQuery(t *testing.T) {
	c, server := scratchFixture(t)
	var s Scratch
	for _, name := range []dns.Name{"x.example", "a.refused.test", "y.example", "y.example"} {
		want, wantWire, err := c.QueryWire(context.Background(), server, name, dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		got, wire, err := c.QueryInto(context.Background(), &s, server, name, dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire[2:], wantWire[2:]) {
			t.Errorf("%s: wire % x, want % x past the ID", name, wire, wantWire)
		}
		want.Header.ID = got.Header.ID
		if got.Summary() != want.Summary() {
			t.Errorf("%s: scratch decoded\n%s\nowned\n%s", name, got.Summary(), want.Summary())
		}
		if decoded, err := s.Decode(wantWire); err != nil || decoded != got {
			t.Errorf("%s: Decode did not land in the scratch's message: %v", name, err)
		}
	}
}

// idRecorder is a transport that notes the ID of every query it carries and
// answers REFUSED — with the ID corrupted, as an off-path spoofer's guess would
// be, for the attempts spoof names (counted from 0).
type idRecorder struct {
	ids   []uint16
	spoof map[int]bool
}

func (r *idRecorder) Instant() bool { return true }

func (r *idRecorder) Exchange(_ context.Context, buf []byte, _ netip.AddrPort, packed []byte, _ bool) ([]byte, error) {
	id := uint16(packed[0])<<8 | uint16(packed[1])
	r.ids = append(r.ids, id)
	resp := append(buf[:0], packed...)
	resp[2] |= 0x80 // QR
	resp[3] = resp[3]&0xF0 | byte(dns.RCodeRefused)
	if r.spoof[len(r.ids)-1] {
		resp[0] ^= 0xA5
	}
	return resp, nil
}

// TestScratchIDStreams: query IDs come from the scratch, not from a counter
// every worker of a client advances. A seeded client makes the sequence of one
// scratch reproducible; two scratches of one client draw different sequences,
// in whatever order they interleave; the pooled entry points are as
// reproducible as a scratch of the caller's own; and an attempt that follows a
// response carrying the wrong ID goes out under a fresh one.
func TestScratchIDStreams(t *testing.T) {
	ctx := context.Background()
	server := netip.MustParseAddrPort("10.0.0.53:53")
	draw := func(c *Client, rec *idRecorder, s *Scratch, n int) []uint16 {
		t.Helper()
		from := len(rec.ids)
		for i := 0; i < n; i++ {
			if _, _, err := c.QueryInto(ctx, s, server, "a.example", dns.TypeA); err != nil {
				t.Fatal(err)
			}
		}
		return append([]uint16(nil), rec.ids[from:]...)
	}
	distinct := func(ids []uint16) int {
		seen := map[uint16]bool{}
		for _, id := range ids {
			seen[id] = true
		}
		return len(seen)
	}

	rec := &idRecorder{}
	c := NewClient(rec)
	c.SeedIDs(7)
	var a, b Scratch
	first := draw(c, rec, &a, 64)
	if distinct(first) < 60 {
		t.Errorf("64 IDs of one stream hold only %d distinct values: %v", distinct(first), first)
	}
	c.SeedIDs(7)
	if again := draw(c, rec, new(Scratch), 64); !slices.Equal(again, first) {
		t.Errorf("a reseeded client's first scratch drew\n%v\nthe first time\n%v", again, first)
	}
	// The same scratch starts over when its client is reseeded.
	c.SeedIDs(7)
	if again := draw(c, rec, &a, 64); !slices.Equal(again, first) {
		t.Errorf("the scratch kept its old stream across SeedIDs: %v", again)
	}

	// Two scratches, interleaved: each its own sequence, b's unlike a's, and
	// a's unmoved by b's draws.
	c.SeedIDs(7)
	var as, bs []uint16
	for i := 0; i < 64; i++ {
		as = append(as, draw(c, rec, &a, 1)...)
		bs = append(bs, draw(c, rec, &b, 1)...)
	}
	if !slices.Equal(as, first) {
		t.Errorf("a second scratch's draws moved the first one's sequence:\n%v\nwant\n%v", as, first)
	}
	same := 0
	for i := range as {
		if as[i] == bs[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("two scratches of one client agree on %d of 64 IDs", same)
	}

	// Query borrows a pooled scratch; which one must not show in the IDs.
	pooled := func() []uint16 {
		c.SeedIDs(7)
		from := len(rec.ids)
		for i := 0; i < 16; i++ {
			if _, err := c.Query(ctx, server, "a.example", dns.TypeA); err != nil {
				t.Fatal(err)
			}
			if i == 7 {
				runtime.GC() // empties the pool
				runtime.GC()
			}
		}
		return append([]uint16(nil), rec.ids[from:]...)
	}
	if p1, p2 := pooled(), pooled(); !slices.Equal(p1, p2) || distinct(p1) < 15 {
		t.Errorf("pooled queries of a reseeded client drew\n%v\nthen\n%v", p1, p2)
	}

	// A spoofed response (wrong ID) is discarded and the query retried — under
	// a new ID, not the one the spoofer has just seen fail.
	rec = &idRecorder{spoof: map[int]bool{0: true, 1: true}}
	c = NewClient(rec)
	c.SeedIDs(7)
	c.Retries = 2
	c.Backoff = BackoffPolicy{}
	resp, _, err := c.QueryInto(ctx, new(Scratch), server, "a.example", dns.TypeA)
	if err != nil {
		t.Fatalf("third attempt should have been accepted: %v", err)
	}
	if len(rec.ids) != 3 || distinct(rec.ids) != 3 {
		t.Errorf("attempts went out under IDs %v, want three different ones", rec.ids)
	}
	if resp.Header.ID != rec.ids[2] {
		t.Errorf("accepted response carries ID %d, the last attempt's was %d", resp.Header.ID, rec.ids[2])
	}
}

// TestQueryResultsAreOwned: Query and QueryWire hand out messages
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
		if _, _, err := c.QueryWire(ctx, server, "five.example", dns.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wire, kept) || msg.Question().Name != "three.example" || len(msg.Answers) != 2 {
		t.Error("QueryWire's result was overwritten by a later exchange")
	}
}

// TestServeMessageLentReplyPacksAsFresh: serveMessage hands every query's
// handler the reply its pooled query lends, one after another through the same
// storage. Whatever sequence of answers goes through it — a large one with all
// three sections filled, then a bare REFUSED, then a small answer — each must
// pack to exactly the bytes the same handler's reply to a query of its own
// (an owned message, never lent) packs to.
func TestServeMessageLentReplyPacksAsFresh(t *testing.T) {
	rr := func(name dns.Name, i int) dns.RR {
		return dns.RR{Name: name, Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}}
	}
	r := ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		reply := q.Reply()
		name := q.Question().Name
		switch {
		case name.IsSubdomainOf("refused.test"):
			reply.Header.RCode = dns.RCodeRefused
		case name.IsSubdomainOf("big.test"):
			reply.Header.Authoritative = true
			for i := 0; i < 40; i++ { // past 512 octets: truncated over UDP
				reply.Answers = append(reply.Answers, rr(name, i))
			}
			reply.Authority = append(reply.Authority, dns.RR{Name: "big.test", Class: dns.ClassINET, TTL: 60, Data: &dns.NS{Host: "ns.big.test"}})
			reply.Additional = append(reply.Additional, rr("ns.big.test", 53))
		default:
			reply.Answers = append(reply.Answers, rr(name, 1))
		}
		return reply
	})
	src := netip.MustParseAddr("10.0.0.1")
	for round := 0; round < 3; round++ {
		for i, name := range []dns.Name{"a.big.test", "a.refused.test", "small.test", "b.big.test", "b.big.test", "b.refused.test"} {
			for _, via := range []string{ViaUDP, ViaTCP} {
				q := dns.NewQuery(uint16(100*round+i+1), name, dns.TypeA)
				raw, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				maxSize := 0
				if via == ViaUDP {
					maxSize = dns.MaxUDPSize
				}
				want, err := r.HandleQuery(src, q).AppendPackTruncated(nil, maxSize)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 0, 4096)
				if got := serveMessage(buf, r, src, raw, via); !bytes.Equal(got, want) {
					t.Errorf("round %d, %s over %s: served % x\nfresh reply packs to % x", round, name, via, got, want)
				}
				if got := ServeRaw(r, src, raw, via); !bytes.Equal(got, want) {
					t.Errorf("round %d, %s over %s: ServeRaw % x\nfresh reply packs to % x", round, name, via, got, want)
				}
			}
		}
	}
}
