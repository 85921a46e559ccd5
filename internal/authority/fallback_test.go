package authority

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/zone"
)

// TestZoneForEachNameForm: the one zone matcher picks the longest covering
// origin, and the same zone for a dns.Name as for the bytes of the name.
func TestZoneForEachNameForm(t *testing.T) {
	s := NewServer()
	z := zone.New("example.com")
	z.MustAddRR("example.com 60 IN A 192.0.2.1")
	child := zone.New("sub.example.com")
	child.MustAddRR("sub.example.com 60 IN A 192.0.2.2")
	for _, add := range []*zone.Zone{z, child} {
		if err := s.AddZone(add); err != nil {
			t.Fatal(err)
		}
	}
	match := func(name dns.Name, want *zone.Zone) {
		t.Helper()
		if got := zoneFor(s, name); got != want {
			t.Errorf("zoneFor(%q) as a dns.Name = %v, want %v", name, got, want)
		}
		if got := zoneFor(s, []byte(name)); got != want {
			t.Errorf("zoneFor(%q) as bytes = %v, want %v", name, got, want)
		}
	}
	match("www.example.com", z)
	match("example.com", z)
	match("x.sub.example.com", child) // the longest origin wins
	match("sub.example.com", child)
	match("ub.example.com", z) // a suffix match starts at a label
	match("other.org", nil)
	match("com", nil)
	match(dns.Root, nil)

	root := zone.New(dns.Root)
	root.MustAddRR(". 60 IN NS a.root.test")
	if err := s.AddZone(root); err != nil {
		t.Fatal(err)
	}
	match("other.org", root)
	match(dns.Root, root)
	match("x.sub.example.com", child)
}

// TestCNAMEChaseAcrossZonesOnSameServer: a CNAME whose target lives in a
// sibling zone hosted by the same server is chased in-server.
func TestCNAMEChaseAcrossZonesOnSameServer(t *testing.T) {
	s := NewServer()
	a := zone.New("a.test")
	a.MustAddRR("www.a.test 60 IN CNAME target.b.test")
	b := zone.New("b.test")
	b.MustAddRR("target.b.test 60 IN A 192.0.2.9")
	if err := s.AddZone(a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(b); err != nil {
		t.Fatal(err)
	}
	r := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), dns.NewQuery(1, "www.a.test", dns.TypeA))
	if len(r.Answers) != 2 {
		t.Fatalf("answers: %v", r.Answers)
	}
	if r.Answers[1].Data.(*dns.A).Addr.String() != "192.0.2.9" {
		t.Errorf("chased answer: %v", r.Answers[1])
	}
}

// TestQueriesCounterAccumulates covers the stats accessor under load.
func TestQueriesCounterAccumulates(t *testing.T) {
	s := NewServer()
	z := zone.New("c.test")
	z.MustAddRR("c.test 60 IN A 192.0.2.1")
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		s.HandleQuery(netip.MustParseAddr("10.0.0.1"), dns.NewQuery(uint16(i), "c.test", dns.TypeA))
	}
	if got := s.Queries(); got != 25 {
		t.Errorf("Queries = %d", got)
	}
}
