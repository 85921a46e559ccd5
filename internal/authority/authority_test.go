package authority

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/zone"
)

func tldServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	com, err := zone.Parse("com", `
com 3600 IN SOA a.gtld.net hostmaster.gtld.net 1 7200 3600 1209600 300
com 3600 IN NS a.gtld.net
example.com 3600 IN NS ns1.hoster.net
example.com 3600 IN NS ns2.hoster.net
delegated.com 3600 IN NS ns.other.net
glue.com 3600 IN NS ns1.glue.com
ns1.glue.com 3600 IN A 192.0.2.55
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(com); err != nil {
		t.Fatal(err)
	}
	return s
}

func hosterServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	z, err := zone.Parse("example.com", `
example.com 3600 IN SOA ns1.hoster.net hostmaster.hoster.net 1 7200 3600 1209600 300
example.com 3600 IN NS ns1.hoster.net
example.com 300 IN A 203.0.113.10
www.example.com 300 IN CNAME example.com
alias.example.com 300 IN CNAME www.other.org
loop1.example.com 300 IN CNAME loop2.example.com
loop2.example.com 300 IN CNAME loop1.example.com
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	return s
}

func query(name dns.Name, t dns.Type) *dns.Message {
	return dns.NewQuery(42, name, t)
}

var testSrc = netip.MustParseAddr("198.51.100.77")

func TestAuthoritativeAnswer(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("example.com", dns.TypeA))
	if r.Header.RCode != dns.RCodeSuccess || !r.Header.Authoritative {
		t.Fatalf("header: %+v", r.Header)
	}
	if len(r.AnswersOfType(dns.TypeA)) != 1 {
		t.Errorf("answers: %v", r.Answers)
	}
	if s.Queries() != 1 {
		t.Errorf("query counter = %d", s.Queries())
	}
}

func TestCNAMEChaseInZone(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("www.example.com", dns.TypeA))
	if len(r.Answers) != 2 {
		t.Fatalf("expected CNAME + A, got %v", r.Answers)
	}
	if r.Answers[0].Type() != dns.TypeCNAME || r.Answers[1].Type() != dns.TypeA {
		t.Errorf("chain order wrong: %v", r.Answers)
	}
}

func TestCNAMEToExternalTarget(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("alias.example.com", dns.TypeA))
	// Server cannot chase outside its zones: answer carries only the CNAME.
	if len(r.Answers) != 1 || r.Answers[0].Type() != dns.TypeCNAME {
		t.Errorf("answers: %v", r.Answers)
	}
}

func TestCNAMELoopServFail(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("loop1.example.com", dns.TypeA))
	if r.Header.RCode != dns.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", r.Header.RCode)
	}
}

func TestNXDomainWithSOA(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("missing.example.com", dns.TypeA))
	if r.Header.RCode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %v", r.Header.RCode)
	}
	if len(r.Authority) != 1 || r.Authority[0].Type() != dns.TypeSOA {
		t.Errorf("authority: %v", r.Authority)
	}
}

func TestNoDataWithSOA(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("example.com", dns.TypeMX))
	if r.Header.RCode != dns.RCodeSuccess || len(r.Answers) != 0 {
		t.Fatalf("unexpected: %v %v", r.Header.RCode, r.Answers)
	}
	if len(r.Authority) != 1 || r.Authority[0].Type() != dns.TypeSOA {
		t.Errorf("authority: %v", r.Authority)
	}
}

func TestReferral(t *testing.T) {
	s := tldServer(t)
	r := s.HandleQuery(testSrc, query("www.example.com", dns.TypeA))
	if r.Header.Authoritative {
		t.Error("referral must not set AA")
	}
	if len(r.Answers) != 0 {
		t.Errorf("referral answers: %v", r.Answers)
	}
	if len(r.Authority) != 2 {
		t.Fatalf("authority: %v", r.Authority)
	}
	if r.Authority[0].Type() != dns.TypeNS {
		t.Errorf("authority type: %v", r.Authority[0])
	}
}

func TestReferralGlue(t *testing.T) {
	s := tldServer(t)
	r := s.HandleQuery(testSrc, query("host.glue.com", dns.TypeA))
	if len(r.Authority) != 1 {
		t.Fatalf("authority: %v", r.Authority)
	}
	if len(r.Additional) != 1 || r.Additional[0].Data.(*dns.A).Addr.String() != "192.0.2.55" {
		t.Errorf("glue: %v", r.Additional)
	}
}

func TestRefusedOutsideZones(t *testing.T) {
	s := hosterServer(t)
	r := s.HandleQuery(testSrc, query("unrelated.org", dns.TypeA))
	if r.Header.RCode != dns.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", r.Header.RCode)
	}
}

func TestFallbackProtectiveRecords(t *testing.T) {
	s := hosterServer(t)
	protectiveIP := netip.MustParseAddr("203.0.113.200")
	s.SetFallback(func(_ netip.Addr, q *dns.Message) *dns.Message {
		if q.Question().Type != dns.TypeA {
			return nil
		}
		r := q.Reply()
		r.Header.Authoritative = true
		r.Answers = append(r.Answers, dns.RR{
			Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
			Data: &dns.A{Addr: protectiveIP},
		})
		return r
	})
	r := s.HandleQuery(testSrc, query("unhosted.org", dns.TypeA))
	if len(r.Answers) != 1 || r.Answers[0].Data.(*dns.A).Addr != protectiveIP {
		t.Errorf("protective answer: %v", r.Answers)
	}
	// Fallback returning nil degrades to REFUSED.
	r = s.HandleQuery(testSrc, query("unhosted.org", dns.TypeTXT))
	if r.Header.RCode != dns.RCodeRefused {
		t.Errorf("rcode = %v", r.Header.RCode)
	}
}

func TestLongestZoneMatchWins(t *testing.T) {
	s := NewServer()
	parent := zone.New("example.com")
	parent.MustAddRR("example.com 60 IN A 192.0.2.1")
	child := zone.New("sub.example.com")
	child.MustAddRR("sub.example.com 60 IN A 192.0.2.2")
	if err := s.AddZone(parent); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(child); err != nil {
		t.Fatal(err)
	}
	r := s.HandleQuery(testSrc, query("sub.example.com", dns.TypeA))
	if r.Answers[0].Data.(*dns.A).Addr.String() != "192.0.2.2" {
		t.Errorf("child zone not preferred: %v", r.Answers)
	}
}

func TestDuplicateZoneRejected(t *testing.T) {
	s := NewServer()
	if err := s.AddZone(zone.New("example.com")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(zone.New("example.com")); err == nil {
		t.Error("duplicate origin accepted")
	}
	if len(s.zones) != 1 {
		t.Errorf("zones = %d", len(s.zones))
	}
	s.RemoveZone("example.com")
	if s.HasZone("example.com") {
		t.Error("zone still present after RemoveZone")
	}
	if err := s.AddZone(zone.New("example.com")); err != nil {
		t.Errorf("re-add after remove failed: %v", err)
	}
}

func TestNotImpAndRefusedClasses(t *testing.T) {
	s := hosterServer(t)
	q := query("example.com", dns.TypeA)
	q.Header.OpCode = dns.OpUpdate
	if r := s.HandleQuery(testSrc, q); r.Header.RCode != dns.RCodeNotImp {
		t.Errorf("update rcode = %v", r.Header.RCode)
	}
	q2 := query("example.com", dns.TypeA)
	q2.Questions[0].Class = dns.ClassCH
	if r := s.HandleQuery(testSrc, q2); r.Header.RCode != dns.RCodeRefused {
		t.Errorf("CH rcode = %v", r.Header.RCode)
	}
	q3 := dns.NewQuery(9, "example.com", dns.TypeA)
	q3.Questions = nil
	if r := s.HandleQuery(testSrc, q3); r.Header.RCode != dns.RCodeNotImp {
		t.Errorf("no-question rcode = %v", r.Header.RCode)
	}
}
