package registry

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/simnet"
	"repro/internal/zone"
)

func newTestWorld(t *testing.T) (*simnet.Fabric, *ipam.DB, *pdns.Store, *Registry) {
	t.Helper()
	fabric := simnet.New(1)
	ipdb := ipam.New()
	store := pdns.NewStore()
	reg, err := New(fabric, ipdb, store)
	if err != nil {
		t.Fatal(err)
	}
	return fabric, ipdb, store, reg
}

func TestCreateTLDAndDelegationChain(t *testing.T) {
	fabric, ipdb, _, reg := newTestWorld(t)
	if err := reg.CreateTLD("com", 2); err != nil {
		t.Fatal(err)
	}
	// Query the root for example.com: must get a referral to com.
	asn := ipdb.RegisterAS("CLIENT", "US", 1)
	src := ipdb.MustAllocate(asn)
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: src})
	resp, err := c.Query(context.Background(), netip.AddrPortFrom(reg.RootAddr(), dnsio.DNSPort),
		"example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Authority) != 2 {
		t.Fatalf("root referral authority: %v", resp.Authority)
	}
	if len(resp.Additional) != 2 {
		t.Fatalf("root referral glue: %v", resp.Additional)
	}
}

func TestCreateTLDDuplicate(t *testing.T) {
	_, _, _, reg := newTestWorld(t)
	if err := reg.CreateTLD("com", 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.CreateTLD("com", 1); err == nil {
		t.Error("duplicate TLD accepted")
	}
	if err := reg.CreateTLD(dns.Root, 1); err == nil {
		t.Error("root as TLD accepted")
	}
}

func TestMultiLabelTLDDelegatedFromParent(t *testing.T) {
	fabric, ipdb, _, reg := newTestWorld(t)
	if err := reg.CreateTLD("cn", 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.CreateTLD("gov.cn", 1); err != nil {
		t.Fatal(err)
	}
	// The cn TLD server must refer gov.cn queries downward.
	asn := ipdb.RegisterAS("CLIENT", "US", 1)
	src := ipdb.MustAllocate(asn)
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: src})
	// Find cn's server address via root referral.
	resp, err := c.Query(context.Background(), netip.AddrPortFrom(reg.RootAddr(), dnsio.DNSPort),
		"beijing.gov.cn", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Additional) == 0 {
		t.Fatal("no glue from root")
	}
	cnAddr := resp.Additional[0].Data.(*dns.A).Addr
	resp, err = c.Query(context.Background(), netip.AddrPortFrom(cnAddr, dnsio.DNSPort),
		"beijing.gov.cn", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	foundGovCN := false
	for _, rr := range resp.Authority {
		if rr.Name == "gov.cn" && rr.Type() == dns.TypeNS {
			foundGovCN = true
		}
	}
	if !foundGovCN {
		t.Errorf("cn server did not refer gov.cn: %v", resp.Authority)
	}
}

func TestSetDelegationAndHistory(t *testing.T) {
	_, _, store, reg := newTestWorld(t)
	if err := reg.CreateTLD("com", 1); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	err := reg.SetDelegation("example.com", []dns.Name{"ns1.oldhost.net", "ns2.oldhost.net"}, nil, when)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.IsDelegated("example.com") {
		t.Error("not delegated after SetDelegation")
	}
	if !reg.IsDelegatedTo("example.com", "ns1.oldhost.net") {
		t.Error("IsDelegatedTo false for current NS")
	}
	// Switch providers (a "past delegation" is born).
	later := when.AddDate(2, 0, 0)
	err = reg.SetDelegation("example.com", []dns.Name{"ns1.newhost.io"}, nil, later)
	if err != nil {
		t.Fatal(err)
	}
	if reg.IsDelegatedTo("example.com", "ns1.oldhost.net") {
		t.Error("old NS still current")
	}
	ns := reg.Delegation("example.com")
	if len(ns) != 1 || ns[0] != "ns1.newhost.io" {
		t.Errorf("delegation = %v", ns)
	}
	// Passive DNS saw all three NS records.
	for _, ns := range []string{"ns1.oldhost.net.", "ns2.oldhost.net.", "ns1.newhost.io."} {
		if !store.Seen("example.com", dns.TypeNS, ns, time.Time{}) {
			t.Errorf("passive DNS missed NS %s", ns)
		}
	}
}

func TestSetDelegationGlue(t *testing.T) {
	fabric, ipdb, _, reg := newTestWorld(t)
	if err := reg.CreateTLD("com", 1); err != nil {
		t.Fatal(err)
	}
	asn := ipdb.RegisterAS("SELFHOST", "US", 1)
	nsAddr := ipdb.MustAllocate(asn)
	err := reg.SetDelegation("glued.com", []dns.Name{"ns1.glued.com"},
		map[dns.Name]netip.Addr{"ns1.glued.com": nsAddr}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	src := ipdb.MustAllocate(asn)
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: src})
	root, err := c.Query(context.Background(), netip.AddrPortFrom(reg.RootAddr(), dnsio.DNSPort),
		"www.glued.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	comAddr := root.Additional[0].Data.(*dns.A).Addr
	resp, err := c.Query(context.Background(), netip.AddrPortFrom(comAddr, dnsio.DNSPort),
		"www.glued.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Additional) != 1 || resp.Additional[0].Data.(*dns.A).Addr != nsAddr {
		t.Errorf("glue: %v", resp.Additional)
	}
}

func TestDelegationErrors(t *testing.T) {
	_, _, _, reg := newTestWorld(t)
	if err := reg.SetDelegation("example.zz", []dns.Name{"ns1.h.net"}, nil, time.Now()); err == nil {
		t.Error("delegation under unknown TLD accepted")
	}
	if err := reg.CreateTLD("com", 1); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetDelegation("example.com", nil, nil, time.Now()); err == nil {
		t.Error("empty NS set accepted")
	}
}

// TestEndToEndAuthoritativeResolution wires a hosting nameserver into the
// hierarchy and walks the referral chain manually.
func TestEndToEndAuthoritativeResolution(t *testing.T) {
	fabric, ipdb, _, reg := newTestWorld(t)
	if err := reg.CreateTLD("com", 1); err != nil {
		t.Fatal(err)
	}
	// Hosting provider's nameserver.
	hostASN := ipdb.RegisterAS("HOSTER", "US", 1)
	nsAddr := ipdb.MustAllocate(hostASN)
	siteAddr := ipdb.MustAllocate(hostASN)
	srv := authority.NewServer()
	z := zone.New("example.com")
	z.MustAdd("example.com", 3600, zone.StandardSOA("ns1.hoster.net", "h.hoster.net"))
	z.MustAdd("example.com", 300, &dns.A{Addr: siteAddr})
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsio.AttachSim(fabric, nsAddr, srv); err != nil {
		t.Fatal(err)
	}
	// Delegate hoster.net's own NS too, so glueless resolution could work;
	// here we just delegate example.com with out-of-bailiwick NS + no glue,
	// and query the hosting server directly.
	if err := reg.SetDelegation("example.com", []dns.Name{"ns1.hoster.net"}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	src := ipdb.MustAllocate(hostASN)
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: src})
	resp, err := c.Query(context.Background(), netip.AddrPortFrom(nsAddr, dnsio.DNSPort),
		"example.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AnswersOfType(dns.TypeA)) != 1 {
		t.Errorf("answers: %v", resp.Answers)
	}
}
