package hosting

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/psl"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/websim"
	"repro/internal/zone"
)

type world struct {
	fabric *simnet.Fabric
	ipdb   *ipam.DB
	reg    *registry.Registry
	list   *psl.List
	web    *websim.World
	client *dnsio.Client
	src    netip.Addr
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{fabric: simnet.New(1), ipdb: ipam.New(), list: psl.Default()}
	var err error
	w.reg, err = registry.New(w.fabric, w.ipdb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tld := range []dns.Name{"com", "net", "test", "cn", "gov.cn"} {
		if err := w.reg.CreateTLD(tld, 1); err != nil {
			t.Fatal(err)
		}
	}
	w.web = websim.NewWorld(w.fabric)
	asn := w.ipdb.RegisterAS("TEST-CLIENT", "US", 1)
	w.src = w.ipdb.MustAllocate(asn)
	w.client = dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: w.src})
	w.client.SeedIDs(3)
	return w
}

func (w *world) deps(seed int64) Deps {
	return Deps{
		Fabric: w.fabric, IPDB: w.ipdb, Registry: w.reg, PSL: w.list,
		Web: w.web, Roots: []netip.Addr{w.reg.RootAddr()}, Country: "US", Seed: seed,
	}
}

func (w *world) mustProvider(t *testing.T, pol Policy) *Provider {
	t.Helper()
	p, err := NewProvider(pol, w.deps(7))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// registerDomain delegates a domain to a dummy legitimate nameserver.
func (w *world) registerDomain(t *testing.T, domain dns.Name) {
	t.Helper()
	if err := w.reg.SetDelegation(domain, []dns.Name{"ns1.legit-host.net"}, nil,
		time.Now().AddDate(-1, 0, 0)); err != nil {
		t.Fatal(err)
	}
}

func (w *world) queryNS(t *testing.T, ns *Nameserver, name dns.Name, qtype dns.Type) *dns.Message {
	t.Helper()
	resp, err := w.client.Query(context.Background(),
		netip.AddrPortFrom(ns.Addr, dnsio.DNSPort), name, qtype)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestProviderStandup(t *testing.T) {
	w := newWorld(t)
	p := w.mustProvider(t, PresetClouDNS())
	if got := len(p.Nameservers()); got != 8 {
		t.Fatalf("nameservers = %d", got)
	}
	// The provider's infra domain is delegated and its NS hostnames resolve
	// authoritatively from its own servers.
	ns := p.Nameservers()[0]
	resp := w.queryNS(t, ns, ns.Host, dns.TypeA)
	if len(resp.AnswersOfType(dns.TypeA)) != 1 {
		t.Errorf("infra NS A answers: %v", resp.Answers)
	}
	if !w.reg.IsDelegatedTo(p.InfraDomain, ns.Host) {
		t.Error("infra domain not delegated")
	}
}

func TestUndelegatedRecordEndToEnd(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "victim.com") // delegated elsewhere
	p := w.mustProvider(t, PresetClouDNS())
	attacker := p.OpenAccount("attacker", false)
	hz, err := p.CreateZone(attacker.ID, "victim.com")
	if err != nil {
		t.Fatalf("attacker blocked: %v", err)
	}
	if !hz.Served() {
		t.Fatal("zone not served")
	}
	hz.Zone.MustAdd("victim.com", 300, &dns.A{Addr: netip.MustParseAddr("66.66.1.1")})
	hz.Zone.MustAdd("victim.com", 300, dns.NewTXT("cmd:connect 66.66.1.1:443"))

	// The UR is live on the provider's NS even though the TLD delegates the
	// domain elsewhere.
	resp := w.queryNS(t, hz.NS[0], "victim.com", dns.TypeA)
	if got := resp.AnswersOfType(dns.TypeA); len(got) != 1 || got[0].Data.(*dns.A).Addr.String() != "66.66.1.1" {
		t.Errorf("UR answers: %v", resp.Answers)
	}
	if w.reg.IsDelegatedTo("victim.com", hz.NS[0].Host) {
		t.Error("domain should NOT be delegated to the provider")
	}
}

func TestReservedListBlocks(t *testing.T) {
	w := newWorld(t)
	p := w.mustProvider(t, PresetCloudflare())
	p.OpenAccount("a", false)
	_, err := p.CreateZone("a", "google.com")
	reason, ok := IsRefusal(err)
	if !ok || reason != RefusedReserved {
		t.Errorf("err = %v", err)
	}
}

func TestCategoryPolicies(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "registered.com")

	baidu := w.mustProvider(t, PresetBaidu())
	baidu.OpenAccount("a", false)
	// Baidu: no subdomains, no unregistered.
	if _, err := baidu.CreateZone("a", "api.registered.com"); err == nil {
		t.Error("Baidu accepted a subdomain")
	}
	if _, err := baidu.CreateZone("a", "neverregistered.com"); err == nil {
		t.Error("Baidu accepted an unregistered domain")
	}
	if _, err := baidu.CreateZone("a", "registered.com"); err != nil {
		t.Errorf("Baidu refused a registered SLD: %v", err)
	}
	if _, err := baidu.CreateZone("a", "gov.cn"); err != nil {
		t.Errorf("Baidu refused an eTLD: %v", err)
	}

	amazon, err := NewProvider(PresetAmazon(), w.deps(8))
	if err != nil {
		t.Fatal(err)
	}
	amazon.OpenAccount("b", false)
	if _, err := amazon.CreateZone("b", "neverregistered.com"); err != nil {
		t.Errorf("Amazon refused an unregistered domain: %v", err)
	}
}

func TestSubdomainNeedsPaid(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "site.com")
	cf := w.mustProvider(t, PresetCloudflare())
	cf.OpenAccount("free", false)
	cf.OpenAccount("paid", true)
	_, err := cf.CreateZone("free", "api.site.com")
	if reason, ok := IsRefusal(err); !ok || reason != RefusedSubdomainPaid {
		t.Errorf("free-account subdomain: %v", err)
	}
	if _, err := cf.CreateZone("paid", "api.site.com"); err != nil {
		t.Errorf("paid-account subdomain refused: %v", err)
	}
}

func TestDuplicateRules(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "dup.com")

	// ClouDNS: no duplicates at all.
	cd := w.mustProvider(t, PresetClouDNS())
	cd.OpenAccount("a", false)
	cd.OpenAccount("b", false)
	if _, err := cd.CreateZone("a", "dup.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := cd.CreateZone("a", "dup.com"); err == nil {
		t.Error("ClouDNS allowed single-user duplicate")
	}
	if _, err := cd.CreateZone("b", "dup.com"); err == nil {
		t.Error("ClouDNS allowed cross-user duplicate")
	}

	// Cloudflare: cross-user duplicates with distinct NS sets.
	cf, err := NewProvider(PresetCloudflare(), w.deps(9))
	if err != nil {
		t.Fatal(err)
	}
	cf.OpenAccount("owner", false)
	cf.OpenAccount("attacker", false)
	z1, err := cf.CreateZone("owner", "dup.com")
	if err != nil {
		t.Fatal(err)
	}
	z2, err := cf.CreateZone("attacker", "dup.com")
	if err != nil {
		t.Fatalf("Cloudflare refused cross-user duplicate: %v", err)
	}
	for _, ns1 := range z1.NS {
		for _, ns2 := range z2.NS {
			if ns1 == ns2 {
				t.Error("same nameserver assigned to both users for one domain")
			}
		}
	}
	if _, err := cf.CreateZone("owner", "dup.com"); err == nil {
		t.Error("Cloudflare allowed single-user duplicate")
	}
}

func TestAmazonExhaustionAttack(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "target.com")
	pol := PresetAmazon()
	pol.ServerCount = 12 // 12 servers, 4 per zone -> 3 zones exhaust the pool
	am, err := NewProvider(pol, w.deps(10))
	if err != nil {
		t.Fatal(err)
	}
	am.OpenAccount("attacker", false)
	created := 0
	for i := 0; i < 10; i++ {
		if _, err := am.CreateZone("attacker", "target.com"); err != nil {
			reason, ok := IsRefusal(err)
			if !ok || reason != RefusedExhausted {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		created++
	}
	if created != 3 {
		t.Errorf("created %d zones before exhaustion, want 3", created)
	}
	// The legitimate owner can no longer host their own domain.
	am.OpenAccount("owner", false)
	if _, err := am.CreateZone("owner", "target.com"); err == nil {
		t.Error("owner could still host after exhaustion")
	}
}

func TestNSDelegationVerificationBlocksAttacker(t *testing.T) {
	w := newWorld(t)
	pol := PostDisclosure(PresetTencent(), nil)
	if pol.Verification != VerifyNSDelegation || pol.ServeUnverified {
		t.Fatal("post-disclosure Tencent policy wrong")
	}
	p, err := NewProvider(pol, w.deps(11))
	if err != nil {
		t.Fatal(err)
	}
	w.registerDomain(t, "victim.com")
	p.OpenAccount("attacker", false)
	hz, err := p.CreateZone("attacker", "victim.com")
	if err != nil {
		t.Fatal(err)
	}
	if hz.Verified || hz.Served() {
		t.Error("unverified attacker zone is served")
	}
	resp := w.queryNS(t, hz.NS[0], "victim.com", dns.TypeA)
	if resp.Header.RCode == dns.RCodeSuccess && len(resp.Answers) > 0 {
		t.Error("attacker UR resolvable despite verification")
	}

	// A legitimate owner who already delegated to the assigned NS passes.
	// (Simulate: delegate owned.com to the account's assigned servers first.)
	p.OpenAccount("owner", false)
	w.registerDomain(t, "probe-own.com")
	probe, err := p.CreateZone("owner", "probe-own.com")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("owned.com", probe.NSHosts(), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	hz2, err := p.CreateZone("owner", "owned.com")
	if err != nil {
		t.Fatal(err)
	}
	if !hz2.Verified || !hz2.Served() {
		t.Error("legit pre-delegated zone not served")
	}
}

func TestTXTChallengeVerification(t *testing.T) {
	w := newWorld(t)
	pol := PostDisclosure(PresetAlibaba(), nil)
	if pol.Verification != VerifyTXTChallenge {
		t.Fatal("post-disclosure Alibaba policy wrong")
	}
	pol.ServeUnverified = false // strict variant for this test
	p, err := NewProvider(pol, w.deps(12))
	if err != nil {
		t.Fatal(err)
	}

	// Legit owner: runs their real zone on a separate authoritative server.
	ownASN := w.ipdb.RegisterAS("OWNER-DNS", "DE", 1)
	ownNS := w.ipdb.MustAllocate(ownASN)
	ownSrv := authority.NewServer()
	ownZone := zone.New("mydomain.com")
	ownZone.MustAdd("mydomain.com", 3600, zone.StandardSOA("ns1.mydomain.com", "h.mydomain.com"))
	ownZone.MustAdd("ns1.mydomain.com", 3600, &dns.A{Addr: ownNS})
	if err := ownSrv.AddZone(ownZone); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsio.AttachSim(w.fabric, ownNS, ownSrv); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("mydomain.com", []dns.Name{"ns1.mydomain.com"},
		map[dns.Name]netip.Addr{"ns1.mydomain.com": ownNS}, time.Now()); err != nil {
		t.Fatal(err)
	}

	p.OpenAccount("owner", false)
	hz, err := p.CreateZone("owner", "mydomain.com")
	if err != nil {
		t.Fatal(err)
	}
	if hz.Served() {
		t.Fatal("zone served before TXT verification")
	}
	// Owner publishes the challenge in their REAL zone; verification passes.
	ownZone.MustAdd("_urhunter-challenge.mydomain.com", 60, dns.NewTXT(hz.Challenge))
	ok, err := p.CompleteTXTVerification(context.Background(), hz)
	if err != nil || !ok {
		t.Fatalf("verification failed: %v %v", ok, err)
	}
	if !hz.Served() {
		t.Error("zone not served after verification")
	}

	// Attacker cannot publish the token for a domain they don't control.
	w.registerDomain(t, "victim.com")
	p.OpenAccount("attacker", false)
	hz2, err := p.CreateZone("attacker", "victim.com")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ = p.CompleteTXTVerification(context.Background(), hz2)
	if ok || hz2.Served() {
		t.Error("attacker passed TXT verification")
	}
}

func TestRetrievalEvictsAttacker(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "victim.com")
	p := w.mustProvider(t, PresetTencent())
	p.OpenAccount("attacker", false)
	p.OpenAccount("owner", false)
	hz, err := p.CreateZone("attacker", "victim.com")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Retrieve("victim.com", "owner", false); err == nil {
		t.Error("retrieval without ownership proof succeeded")
	}
	if err := p.Retrieve("victim.com", "owner", true); err != nil {
		t.Fatal(err)
	}
	if hz.Served() {
		t.Error("attacker zone still served after retrieval")
	}
	if len(p.ZonesFor("victim.com")) != 0 {
		t.Error("attacker zone still listed")
	}
	// Godaddy has no retrieval.
	gd, err := NewProvider(PresetGodaddy(), w.deps(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.Retrieve("victim.com", "owner", true); err == nil {
		t.Error("Godaddy retrieval should not exist")
	}
}

func TestProtectiveRecords(t *testing.T) {
	w := newWorld(t)
	p := w.mustProvider(t, PresetClouDNS())
	ns := p.Nameservers()[0]
	resp := w.queryNS(t, ns, "unhosted-domain.com", dns.TypeA)
	got := resp.AnswersOfType(dns.TypeA)
	if len(got) != 1 || got[0].Data.(*dns.A).Addr != p.protectiveAddr {
		t.Fatalf("protective A: %v", resp.Answers)
	}
	respTXT := w.queryNS(t, ns, "unhosted-domain.com", dns.TypeTXT)
	gotTXT := respTXT.AnswersOfType(dns.TypeTXT)
	if len(gotTXT) != 1 || gotTXT[0].Data.(*dns.TXT).Joined() != p.ProtectiveTXT() {
		t.Fatalf("protective TXT: %v", respTXT.Answers)
	}
	// The protective site serves a warning page.
	probe := w.web.Probe(w.src, p.protectiveAddr)
	if !probe.Reachable || probe.StatusCode != 200 {
		t.Errorf("protective site probe: %+v", probe)
	}
	// A provider without protective records refuses.
	gd, err := NewProvider(PresetGodaddy(), w.deps(14))
	if err != nil {
		t.Fatal(err)
	}
	resp = w.queryNS(t, gd.Nameservers()[0], "unhosted-domain.com", dns.TypeA)
	if resp.Header.RCode != dns.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestGeoDistributedAnswers(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "cdn-site.com")
	cf := w.mustProvider(t, PresetCloudflare())
	cf.OpenAccount("owner", false)
	hz, err := cf.CreateZone("owner", "cdn-site.com")
	if err != nil {
		t.Fatal(err)
	}
	hz.Zone.MustAdd("cdn-site.com", 300, &dns.A{Addr: netip.MustParseAddr("99.99.99.99")}) // placeholder origin
	cf.MarkGeoDistributed(hz)

	// Clients in different countries see different edges.
	usASN := w.ipdb.RegisterAS("US-EYEBALL", "US", 1)
	deASN := w.ipdb.RegisterAS("DE-EYEBALL", "DE", 1)
	usSrc := w.ipdb.MustAllocate(usASN)
	deSrc := w.ipdb.MustAllocate(deASN)
	askFrom := func(src netip.Addr) netip.Addr {
		c := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.fabric, Src: src})
		resp, err := c.Query(context.Background(),
			netip.AddrPortFrom(hz.NS[0].Addr, dnsio.DNSPort), "cdn-site.com", dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		as := resp.AnswersOfType(dns.TypeA)
		if len(as) != 1 {
			t.Fatalf("answers: %v", resp.Answers)
		}
		return as[0].Data.(*dns.A).Addr
	}
	usEdge, deEdge := askFrom(usSrc), askFrom(deSrc)
	if usEdge == deEdge {
		t.Errorf("geo answers identical: %v", usEdge)
	}
	wantUS, _ := cf.EdgeAddr("US")
	if usEdge != wantUS {
		t.Errorf("US edge = %v, want %v", usEdge, wantUS)
	}
	if len(cf.edges) != len(ipam.Countries) {
		t.Errorf("edge count = %d", len(cf.edges))
	}
}

func TestOpenRecursiveFallback(t *testing.T) {
	w := newWorld(t)
	// A real site delegated to a legit server.
	legitASN := w.ipdb.RegisterAS("LEGIT", "FR", 1)
	legitNS := w.ipdb.MustAllocate(legitASN)
	siteIP := w.ipdb.MustAllocate(legitASN)
	srv := authority.NewServer()
	z := zone.New("realsite.com")
	z.MustAdd("realsite.com", 3600, zone.StandardSOA("ns1.realsite.com", "h.realsite.com"))
	z.MustAdd("realsite.com", 300, &dns.A{Addr: siteIP})
	z.MustAdd("ns1.realsite.com", 300, &dns.A{Addr: legitNS})
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsio.AttachSim(w.fabric, legitNS, srv); err != nil {
		t.Fatal(err)
	}
	if err := w.reg.SetDelegation("realsite.com", []dns.Name{"ns1.realsite.com"},
		map[dns.Name]netip.Addr{"ns1.realsite.com": legitNS}, time.Now()); err != nil {
		t.Fatal(err)
	}

	pol := PresetGodaddy()
	pol.Name = "MisconfiguredHost"
	pol.InfraDomain = "misconf.test"
	pol.OpenRecursive = true
	p, err := NewProvider(pol, w.deps(15))
	if err != nil {
		t.Fatal(err)
	}
	resp := w.queryNS(t, p.Nameservers()[0], "realsite.com", dns.TypeA)
	got := resp.AnswersOfType(dns.TypeA)
	if len(got) != 1 || got[0].Data.(*dns.A).Addr != siteIP {
		t.Errorf("open-recursive answer: %v", resp.Answers)
	}
}

func TestPaidSyncAllNS(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "synced.com")
	cf := w.mustProvider(t, PresetCloudflare())
	cf.OpenAccount("paid", true)
	hz, err := cf.CreateZone("paid", "synced.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(hz.NS) != len(cf.Nameservers()) {
		t.Errorf("paid zone on %d/%d nameservers", len(hz.NS), len(cf.Nameservers()))
	}
}

func TestAccountErrors(t *testing.T) {
	w := newWorld(t)
	p := w.mustProvider(t, PresetGodaddy())
	if _, err := p.CreateZone("ghost", "x.com"); err != ErrNoAccount {
		t.Errorf("err = %v", err)
	}
	p.OpenAccount("a", false)
	if _, err := p.CreateZone("a", "bad!name.com"); err == nil {
		t.Error("invalid domain accepted")
	}
	// Re-opening returns the same account.
	a1 := p.OpenAccount("a", false)
	a2 := p.OpenAccount("a", true)
	if a1 != a2 {
		t.Error("OpenAccount duplicated the account")
	}
}

func TestDeleteZone(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "temp.com")
	p := w.mustProvider(t, PresetGodaddy())
	p.OpenAccount("a", false)
	hz, err := p.CreateZone("a", "temp.com")
	if err != nil {
		t.Fatal(err)
	}
	p.DeleteZone(hz)
	if hz.Served() {
		t.Error("zone served after delete")
	}
	if len(p.HostedDomains()) != 0 {
		t.Errorf("hosted domains = %v", p.HostedDomains())
	}
	// Domain can be hosted again afterwards.
	if _, err := p.CreateZone("a", "temp.com"); err != nil {
		t.Errorf("re-create failed: %v", err)
	}
}
