package dnsio

import (
	"context"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// staticResponder answers every A query with a fixed address and returns
// NXDOMAIN otherwise. TXT queries get a large record to exercise truncation.
type staticResponder struct {
	addr netip.Addr
}

func (s staticResponder) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	r := q.Reply()
	r.Header.Authoritative = true
	switch q.Question().Type {
	case dns.TypeA:
		r.Answers = append(r.Answers, dns.RR{
			Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
			Data: &dns.A{Addr: s.addr},
		})
	case dns.TypeTXT:
		for i := 0; i < 10; i++ {
			r.Answers = append(r.Answers, dns.RR{
				Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
				Data: dns.NewTXT(strings.Repeat("x", 200)),
			})
		}
	default:
		r.Header.RCode = dns.RCodeNXDomain
	}
	return r
}

func newSimClient(t *testing.T) (*Client, netip.AddrPort) {
	t.Helper()
	fabric := simnet.New(7)
	serverIP := netip.MustParseAddr("192.0.2.53")
	detach, err := AttachSim(fabric, serverIP, staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(detach)
	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.SeedIDs(1)
	return c, netip.AddrPortFrom(serverIP, DNSPort)
}

func TestSimQueryA(t *testing.T) {
	c, server := newSimClient(t)
	resp, err := c.Query(context.Background(), server, "www.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	as := resp.AnswersOfType(dns.TypeA)
	if len(as) != 1 || as[0].Data.(*dns.A).Addr.String() != "203.0.113.80" {
		t.Errorf("unexpected answers %v", resp.Answers)
	}
	if !resp.Header.Authoritative {
		t.Error("AA not set")
	}
}

func TestSimQueryNXDomain(t *testing.T) {
	c, server := newSimClient(t)
	resp, err := c.Query(context.Background(), server, "www.example.com", dns.TypeMX)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.Header.RCode)
	}
}

func TestSimTruncationFallsBackToTCP(t *testing.T) {
	c, server := newSimClient(t)
	resp, err := c.Query(context.Background(), server, "big.example.com", dns.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	// The TXT answer is ~2KB; over plain UDP (512) the server truncates and
	// the client must recover the full answer over the reliable path.
	if resp.Header.Truncated {
		t.Error("final response still truncated")
	}
	if len(resp.Answers) != 10 {
		t.Errorf("answers = %d, want 10", len(resp.Answers))
	}
}

func TestSimUnreachableServer(t *testing.T) {
	c, _ := newSimClient(t)
	c.Retries = 0
	_, err := c.Query(context.Background(), netip.MustParseAddrPort("192.0.2.99:53"), "x.test", dns.TypeA)
	if err == nil {
		t.Fatal("expected error for unreachable server")
	}
}

func TestRetriesRecoverFromLoss(t *testing.T) {
	fabric := simnet.New(3)
	fabric.SetLossRate(0.4)
	serverIP := netip.MustParseAddr("192.0.2.53")
	detach, err := AttachSim(fabric, serverIP, staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.SeedIDs(1)
	c.Retries = 8
	server := netip.AddrPortFrom(serverIP, DNSPort)
	okCount := 0
	for i := 0; i < 50; i++ {
		if _, err := c.Query(context.Background(), server, "www.example.com", dns.TypeA); err == nil {
			okCount++
		}
	}
	// With 40% loss and 9 attempts, effectively every query should succeed.
	if okCount < 48 {
		t.Errorf("only %d/50 queries succeeded", okCount)
	}
}

func TestServeBytesFormErr(t *testing.T) {
	r := staticResponder{addr: netip.MustParseAddr("203.0.113.80")}
	// 12 header bytes followed by garbage question.
	raw := append(make([]byte, 4), 0, 1, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF)
	raw[0], raw[1] = 0xAB, 0xCD
	out := serveMessage(nil, r, netip.Addr{}, raw, ViaUDP)
	if out == nil {
		t.Fatal("no FORMERR response")
	}
	resp, err := dns.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeFormat {
		t.Errorf("rcode = %v, want FORMERR", resp.Header.RCode)
	}
	if resp.Header.ID != 0xABCD {
		t.Errorf("id = %x", resp.Header.ID)
	}
	// Short garbage gets no response at all.
	if out := serveMessage(nil, r, netip.Addr{}, []byte{1, 2, 3}, ViaUDP); out != nil {
		t.Error("expected nil for short garbage")
	}
}

func TestUDPPayloadSize(t *testing.T) {
	q := dns.NewQuery(1, "x.test", dns.TypeA)
	if got := udpPayloadSize(q); got != dns.MaxUDPSize {
		t.Errorf("no-EDNS size = %d", got)
	}
	q.Additional = append(q.Additional, dns.RR{
		Name: dns.Root, Class: dns.Class(1232), Data: &dns.OPT{},
	})
	if got := udpPayloadSize(q); got != 1232 {
		t.Errorf("EDNS size = %d", got)
	}
	q.Additional[0].Class = dns.Class(100) // below classic floor
	if got := udpPayloadSize(q); got != dns.MaxUDPSize {
		t.Errorf("floored size = %d", got)
	}
	q.Additional[0].Class = dns.Class(65000) // above our ceiling
	if got := udpPayloadSize(q); got != dns.MaxEDNS0Size {
		t.Errorf("ceiling size = %d", got)
	}
}

// TestRealSockets drives the same responder over genuine UDP/TCP loopback
// sockets, proving the codec and framing against the OS network stack.
func TestRealSockets(t *testing.T) {
	srv := NewServer(staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.UDPAddr().Port() != srv.TCPAddr().Port() {
		t.Skipf("UDP port %d != TCP port %d; skipping fallback test", srv.UDPAddr().Port(), srv.TCPAddr().Port())
	}
	c := NewClient(&NetTransport{})
	resp, err := c.Query(context.Background(), srv.UDPAddr(), "www.example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AnswersOfType(dns.TypeA)) != 1 {
		t.Errorf("unexpected answers: %v", resp.Answers)
	}
	// Large TXT answer: requires real TCP fallback.
	resp, err = c.Query(context.Background(), srv.UDPAddr(), "big.example.com", dns.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 10 {
		t.Errorf("TCP fallback answers = %d, want 10", len(resp.Answers))
	}
}

func TestClientValidation(t *testing.T) {
	q := dns.NewQuery(100, "a.test", dns.TypeA)
	var resp dns.Message

	// Wrong ID.
	r := q.Reply()
	r.Header.ID = 101
	raw, _ := r.Pack()
	if err := validate(q, raw, &resp); err != ErrIDMismatch {
		t.Errorf("want ID mismatch, got %v", err)
	}
	// Not a response.
	raw, _ = q.Pack()
	if err := validate(q, raw, &resp); err != ErrNotResponse {
		t.Errorf("want not-response, got %v", err)
	}
	// Question mismatch.
	other := dns.NewQuery(100, "b.test", dns.TypeA).Reply()
	raw, _ = other.Pack()
	if err := validate(q, raw, &resp); err != ErrQuestionMismatch {
		t.Errorf("want question mismatch, got %v", err)
	}
	// Good response.
	good := q.Reply()
	raw, _ = good.Pack()
	if err := validate(q, raw, &resp); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
}

func TestResponderFunc(t *testing.T) {
	called := false
	r := ResponderFunc(func(src netip.Addr, q *dns.Message) *dns.Message {
		called = true
		reply := q.Reply()
		reply.Header.RCode = dns.RCodeRefused
		return reply
	})
	resp := r.HandleQuery(netip.MustParseAddr("10.0.0.1"), dns.NewQuery(1, "x.test", dns.TypeA))
	if !called || resp.Header.RCode != dns.RCodeRefused {
		t.Errorf("ResponderFunc dispatch broken: %v %v", called, resp.Header.RCode)
	}
}
