package urwatch

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
)

const testApex = dns.Name("feed.test")

func newTestResponder(s *Store) *ZoneResponder {
	return &ZoneResponder{Apex: testApex, Store: s}
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.Publish(sealGen(t, 1,
		mkVerdict("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7"),
		mkVerdict("evil.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.8"),
		mkVerdict("shady.test", "192.0.2.1", core.CategoryUnknown, "203.0.113.9"),
	))
	return s
}

func ask(z *ZoneResponder, name dns.Name, t dns.Type) *dns.Message {
	q := dns.NewQuery(42, name, t)
	return z.HandleQuery(netip.MustParseAddr("10.9.9.9"), q)
}

func firstTXT(t *testing.T, m *dns.Message) string {
	t.Helper()
	if len(m.Answers) == 0 {
		t.Fatal("no TXT answers")
	}
	txt, ok := m.Answers[0].Data.(*dns.TXT)
	if !ok || len(txt.Strings) == 0 {
		t.Fatalf("first answer is not TXT: %v", m.Answers[0])
	}
	return txt.Strings[0]
}

func TestDNSBLDomainLookup(t *testing.T) {
	z := newTestResponder(testStore(t))

	resp := ask(z, DomainName("evil.test", testApex), dns.TypeA)
	if resp.Header.RCode != dns.RCodeSuccess || !resp.Header.Authoritative {
		t.Fatalf("rcode=%s aa=%v", resp.Header.RCode, resp.Header.Authoritative)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	a, ok := resp.Answers[0].Data.(*dns.A)
	if !ok {
		t.Fatalf("answer is %T", resp.Answers[0].Data)
	}
	// Worst of {malicious, correct} is malicious -> 127.0.0.2.
	if want := netip.MustParseAddr("127.0.0.2"); a.Addr != want {
		t.Errorf("A = %s, want %s", a.Addr, want)
	}

	txtResp := ask(z, DomainName("evil.test", testApex), dns.TypeTXT)
	head := firstTXT(t, txtResp)
	if !strings.Contains(head, "gen=1") || !strings.Contains(head, "listed=2") ||
		!strings.Contains(head, "worst="+core.CategoryMalicious.String()) {
		t.Errorf("TXT header = %q", head)
	}
	// One evidence string per verdict follows the header.
	if len(txtResp.Answers) != 3 {
		t.Errorf("TXT answers = %d, want 3 (header + 2 evidence)", len(txtResp.Answers))
	}
}

func TestDNSBLReversedIP(t *testing.T) {
	z := newTestResponder(testStore(t))
	name, ok := ReverseIPName(netip.MustParseAddr("198.51.100.7"), testApex)
	if !ok {
		t.Fatal("ReverseIPName failed")
	}
	if !strings.HasPrefix(string(name), "7.100.51.198.urbl.") {
		t.Fatalf("reversed name = %s", name)
	}
	resp := ask(z, name, dns.TypeA)
	if len(resp.Answers) != 1 {
		t.Fatalf("rcode=%s answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	if a := resp.Answers[0].Data.(*dns.A); a.Addr != netip.MustParseAddr("127.0.0.2") {
		t.Errorf("A = %s, want 127.0.0.2 (malicious)", a.Addr)
	}
	// The unknown-category verdict maps to the suspicious code (3).
	name2, _ := ReverseIPName(netip.MustParseAddr("203.0.113.9"), testApex)
	resp2 := ask(z, name2, dns.TypeA)
	if a := resp2.Answers[0].Data.(*dns.A); a.Addr != netip.MustParseAddr("127.0.0.3") {
		t.Errorf("A = %s, want 127.0.0.3 (suspicious)", a.Addr)
	}
}

func TestDNSBLNegativeAnswers(t *testing.T) {
	z := newTestResponder(testStore(t))

	resp := ask(z, DomainName("clean.test", testApex), dns.TypeA)
	if resp.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("unlisted domain rcode = %s, want NXDOMAIN", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 {
		t.Fatalf("authority = %d, want SOA", len(resp.Authority))
	}
	soa, ok := resp.Authority[0].Data.(*dns.SOA)
	if !ok {
		t.Fatalf("authority is %T", resp.Authority[0].Data)
	}
	if soa.Serial != 1 {
		t.Errorf("SOA serial = %d, want generation 1", soa.Serial)
	}

	out := ask(z, "somewhere.else.test", dns.TypeA)
	if out.Header.RCode != dns.RCodeRefused {
		t.Errorf("out-of-zone rcode = %s, want REFUSED", out.Header.RCode)
	}

	empty := z.HandleQuery(netip.MustParseAddr("10.9.9.9"), &dns.Message{})
	if empty.Header.RCode != dns.RCodeFormat {
		t.Errorf("no-question rcode = %s, want FORMERR", empty.Header.RCode)
	}
}

func TestDNSBLGenMarker(t *testing.T) {
	z := newTestResponder(testStore(t))
	resp := ask(z, "gen."+testApex, dns.TypeTXT)
	head := firstTXT(t, resp)
	if !strings.Contains(head, "gen=1") || !strings.Contains(head, "total=3") {
		t.Errorf("gen TXT = %q", head)
	}
}

func TestDNSBLRateLimitRefuses(t *testing.T) {
	clk := newVirtualClock()
	s := testStore(t)
	z := newTestResponder(s)
	z.Limiter = NewRateLimiter(1, 1, clk.read)

	name := DomainName("evil.test", testApex)
	if resp := ask(z, name, dns.TypeA); resp.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("first query rcode = %s", resp.Header.RCode)
	}
	if resp := ask(z, name, dns.TypeA); resp.Header.RCode != dns.RCodeRefused {
		t.Errorf("second query rcode = %s, want REFUSED", resp.Header.RCode)
	}
	clk.advance(time.Second)
	if resp := ask(z, name, dns.TypeA); resp.Header.RCode != dns.RCodeSuccess {
		t.Errorf("post-refill query rcode = %s", resp.Header.RCode)
	}
}

// TestDNSBLAnswerFollowsPublish pins that the answer after a publish is the new
// generation's: nothing rendered from the old one outlives the swap.
func TestDNSBLAnswerFollowsPublish(t *testing.T) {
	s := testStore(t)
	z := newTestResponder(s)
	name := DomainName("evil.test", testApex)

	if resp := ask(z, name, dns.TypeA); resp.Header.RCode != dns.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("pre-swap rcode = %s, answers = %d", resp.Header.RCode, len(resp.Answers))
	}

	// Generation 2 drops evil.test entirely.
	s.Publish(sealGen(t, 2,
		mkVerdict("shady.test", "192.0.2.1", core.CategoryUnknown, "203.0.113.9")))
	resp := ask(z, name, dns.TypeA)
	if resp.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("post-swap rcode = %s, want NXDOMAIN (old generation served?)", resp.Header.RCode)
	}
	if soa := resp.Authority[0].Data.(*dns.SOA); soa.Serial != 2 {
		t.Errorf("post-swap SOA serial = %d, want 2", soa.Serial)
	}
	if head := firstTXT(t, ask(z, DomainName("shady.test", testApex), dns.TypeTXT)); !strings.HasPrefix(head, "gen=2 ") {
		t.Errorf("post-swap TXT header = %q, want gen=2", head)
	}
}
