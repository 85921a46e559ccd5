package scenario

import (
	"fmt"
	"net/netip"

	"repro/internal/authority"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/hosting"
	"repro/internal/malware"
	"repro/internal/sandbox"
	"repro/internal/simnet"
	"repro/internal/threatintel"
	"repro/internal/websim"
	"repro/internal/zone"
)

// hostLegitimateSites gives every target domain a legitimate owner: a zone
// at a weighted-random provider, a website with a certificate, a delegation
// in the registry, passive-DNS history, and (for a fraction) a stale zone
// left behind at a previous provider.
func (w *World) hostLegitimateSites() error {
	// Web-hosting organizations the site IPs come from.
	for i := 0; i < 12; i++ {
		asn := w.IPDB.RegisterAS(fmt.Sprintf("WEBHOSTING-%02d", i),
			countryAt(w.rng.Intn(len(countryPool))), 2)
		w.webASNs = append(w.webASNs, asn)
	}
	for _, target := range w.Targets {
		if isCaseFQDN(target) {
			continue // served inside the SLD owner's zone below
		}
		if err := w.hostOneSite(target); err != nil {
			return err
		}
	}
	return nil
}

var countryPool = []string{"US", "DE", "JP", "FR", "NL", "KR", "SG", "BR", "IN", "GB"}

func countryAt(i int) string { return countryPool[i%len(countryPool)] }

func isCaseFQDN(d dns.Name) bool {
	for _, f := range caseFQDNs {
		if f == d {
			return true
		}
	}
	return false
}

// pickHostingProvider draws a provider by the Figure 2 calibration weights.
// Case-study domains avoid the providers their attackers need free.
func (w *World) pickHostingProvider(domain dns.Name) *hosting.Provider {
	avoid := map[string]bool{}
	for _, d := range caseSLDs {
		if d == domain {
			avoid["Namecheap"] = true
			avoid["CSC"] = true
			avoid["ClouDNS"] = true
		}
	}
	u := w.rng.Float64()
	acc := 0.0
	for _, hw := range hostingWeights {
		acc += hw.Weight
		if u < acc {
			if p, ok := w.ProviderByName[hw.Provider]; ok && !avoid[hw.Provider] {
				return p
			}
			break
		}
	}
	// Long tail: a random generic provider.
	for tries := 0; tries < 10; tries++ {
		p := w.Providers[w.rng.Intn(len(w.Providers))]
		if !avoid[p.Name] && p.AllowSLD {
			return p
		}
	}
	return w.ProviderByName["Godaddy"]
}

// selfHostedGiants run their own authoritative DNS in the real world (and
// sit on every provider's reserved list).
var selfHostedGiants = map[dns.Name]bool{
	"google.com": true, "facebook.com": true, "microsoft.com": true,
	"amazon.com": true, "apple.com": true,
}

func (w *World) hostOneSite(domain dns.Name) error {
	// The domain is registered first (registrar parking NS), so providers
	// that refuse unregistered domains see it as registered — the normal
	// order of operations for a real site.
	if err := w.Registry.SetDelegation(domain, []dns.Name{"ns1.registrar-parking.test"},
		nil, Now.AddDate(-4, 0, 0)); err != nil {
		return err
	}
	if selfHostedGiants[domain] {
		return w.hostSelfOperated(domain)
	}
	// Past delegation next, so PDNS history predates the current one.
	if w.rng.Float64() < w.Scale.PastDelegationFrac {
		if err := w.hostPastDelegation(domain); err != nil {
			return err
		}
	}

	var hz *hosting.HostedZone
	var provider *hosting.Provider
	for tries := 0; tries < 8; tries++ {
		provider = w.pickHostingProvider(domain)
		account := provider.OpenAccount("owner-"+string(domain), provider.PaidSyncAllNS)
		z, err := provider.CreateZone(account.ID, domain)
		if err == nil {
			hz = z
			break
		}
		if _, ok := hosting.IsRefusal(err); !ok {
			return err
		}
	}
	if hz == nil {
		// Every provider refused (the domain sits on reserved lists): the
		// owner runs their own authoritative DNS, like the hyperscalers do.
		return w.hostSelfOperated(domain)
	}

	asn := w.webASNs[w.rng.Intn(len(w.webASNs))]
	siteIP, err := w.IPDB.Allocate(asn)
	if err != nil {
		return err
	}
	hz.Zone.MustAddRR(fmt.Sprintf("%s 300 IN A %s", string(domain), siteIP))
	spf := fmt.Sprintf(`%s 300 IN TXT "v=spf1 ip4:%s -all"`, string(domain), siteIP)
	hz.Zone.MustAddRR(spf)
	// A quarter of the sites have a www host that passive DNS observed —
	// the raw material for the E17 subdomain-recovery experiment.
	if w.rng.Float64() < 0.25 {
		www := domain.Child("www")
		hz.Zone.MustAddRR(fmt.Sprintf("%s 300 IN A %s", string(www), siteIP))
		w.PDNS.Observe(www, dns.TypeA, siteIP.String(), Now.AddDate(0, -8, 0))
	}
	// A third of the sites run mail, for the MX extension sweep (E16).
	if w.rng.Float64() < 0.33 {
		mx := fmt.Sprintf("%s 300 IN MX 10 mail.%s", string(domain), string(domain))
		hz.Zone.MustAddRR(mx)
		w.PDNS.Observe(domain, dns.TypeMX, fmt.Sprintf("10 mail.%s.", string(domain)), Now.AddDate(-1, 0, 0))
	}
	// Case-study SLDs carry the FQDNs the malware families masquerade as.
	for _, f := range caseFQDNs {
		if f.IsProperSubdomainOf(domain) {
			hz.Zone.MustAddRR(fmt.Sprintf("%s 300 IN A %s", string(f), siteIP))
		}
	}

	if err := w.Web.Install(&websim.Site{
		Addr: siteIP, Kind: websim.KindBusiness, Title: string(domain),
		Cert: websim.NewCert(string(domain), "SimTrust CA", "www."+string(domain)),
	}); err != nil {
		return err
	}
	if provider.CDNEdges {
		provider.MarkGeoDistributed(hz)
	}
	// Delegation names at most two hosts, as real zone cuts do. Fleet-sync
	// providers still answer from every server — those answers are exactly
	// the "correct" undelegated records that dominate Figure 2.
	hosts := hz.NSHosts()
	if len(hosts) > 2 {
		hosts = hosts[:2]
	}
	if err := w.Registry.SetDelegation(domain, hosts, nil, Now.AddDate(-1, 0, 0)); err != nil {
		return err
	}
	// Under post-disclosure policies the zone is served only after the
	// provider confirms the delegation; the legitimate owner passes.
	if !hz.Served() {
		provider.RecheckNSDelegation(hz)
	}
	// Legitimate resolution history.
	w.PDNS.Observe(domain, dns.TypeA, siteIP.String(), Now.AddDate(-1, 0, 0))
	w.PDNS.Observe(domain, dns.TypeA, siteIP.String(), Now.AddDate(0, -1, 0))
	return nil
}

// hostSelfOperated stands up the owner's own authoritative server for a
// domain no hosting provider will accept (the reserved hyperscaler names).
func (w *World) hostSelfOperated(domain dns.Name) error {
	if w.selfHostASN == 0 {
		w.selfHostASN = w.IPDB.RegisterAS("SELFHOST-DNS", "US", 1)
	}
	nsAddr, err := w.IPDB.Allocate(w.selfHostASN)
	if err != nil {
		return err
	}
	asn := w.webASNs[w.rng.Intn(len(w.webASNs))]
	siteIP, err := w.IPDB.Allocate(asn)
	if err != nil {
		return err
	}
	d := string(domain)
	z := zone.New(domain)
	z.MustAddRR(fmt.Sprintf("%s 3600 IN SOA ns1.%s hostmaster.%s 1 7200 3600 1209600 300", d, d, d))
	z.MustAddRR(fmt.Sprintf("ns1.%s 3600 IN A %s", d, nsAddr))
	z.MustAddRR(fmt.Sprintf("%s 300 IN A %s", d, siteIP))
	z.MustAddRR(fmt.Sprintf(`%s 300 IN TXT "v=spf1 ip4:%s -all"`, d, siteIP))
	for _, f := range caseFQDNs {
		if f.IsProperSubdomainOf(domain) {
			z.MustAddRR(fmt.Sprintf("%s 300 IN A %s", string(f), siteIP))
		}
	}
	srv := authority.NewServer()
	if err := srv.AddZone(z); err != nil {
		return err
	}
	if _, err := dnsio.AttachSim(w.Fabric, nsAddr, srv); err != nil {
		return err
	}
	if err := w.Web.Install(&websim.Site{
		Addr: siteIP, Kind: websim.KindBusiness, Title: d,
		Cert: websim.NewCert(d, "SimTrust CA", "www."+d),
	}); err != nil {
		return err
	}
	nsHost := dns.CanonicalName("ns1." + d)
	if err := w.Registry.SetDelegation(domain, []dns.Name{nsHost},
		map[dns.Name]netip.Addr{nsHost: nsAddr}, Now.AddDate(-1, 0, 0)); err != nil {
		return err
	}
	w.PDNS.Observe(domain, dns.TypeA, siteIP.String(), Now.AddDate(-1, 0, 0))
	return nil
}

// hostPastDelegation leaves a stale zone at a previous provider with the
// domain's old address — a UR source URHunter must exclude via PDNS.
func (w *World) hostPastDelegation(domain dns.Name) error {
	provider := w.Providers[w.rng.Intn(len(w.Providers))]
	if !provider.AllowSLD || provider.CDNEdges {
		provider = w.ProviderByName["Godaddy"]
	}
	account := provider.OpenAccount("past-owner-"+string(domain), false)
	hz, err := provider.CreateZone(account.ID, domain)
	if err != nil {
		return nil // refused: no stale zone then
	}
	asn := w.webASNs[w.rng.Intn(len(w.webASNs))]
	oldIP, err := w.IPDB.Allocate(asn)
	if err != nil {
		return err
	}
	hz.Zone.MustAddRR(fmt.Sprintf("%s 300 IN A %s", string(domain), oldIP))
	// Half the abandoned sites now park; the other half still serve the old
	// page with the certificate of its era — for those, only passive DNS can
	// explain the stale record (the E14 ablation leans on this).
	site := &websim.Site{Addr: oldIP, Kind: websim.KindParking, Title: string(domain)}
	if w.rng.Float64() < 0.5 {
		site.Kind = websim.KindBusiness
		site.Cert = websim.NewCert(string(domain), "LegacyTrust CA")
	}
	if err := w.Web.Install(site); err != nil {
		return err
	}
	// The delegation lived three years ago and was observed then.
	if err := w.Registry.SetDelegation(domain, hz.NSHosts(), nil, Now.AddDate(-3, 0, 0)); err != nil {
		return err
	}
	w.PDNS.Observe(domain, dns.TypeA, oldIP.String(), Now.AddDate(-3, 0, 0))
	w.PDNS.Observe(domain, dns.TypeA, oldIP.String(), Now.AddDate(-2, -6, 0))
	return nil
}

// buildAttackerInfrastructure allocates the malicious and clean attacker IP
// pools, assigns threat-intel evidence per the Figure 3 calibrations, and
// stands up the C2/SMTP endpoints.
func (w *World) buildAttackerInfrastructure() error {
	w.attackerASN = w.IPDB.RegisterAS("BULLETPROOF-HOSTING", "RU", 4)
	secondASN := w.IPDB.RegisterAS("OFFSHORE-VPS", "SA", 4)

	for i := 0; i < w.Scale.EvidencedIPs; i++ {
		asn := w.attackerASN
		if i%2 == 1 {
			asn = secondASN
		}
		ip, err := w.IPDB.Allocate(asn)
		if err != nil {
			return err
		}
		w.EvidencedIPs = append(w.EvidencedIPs, ip)
		u := w.rng.Float64()
		switch {
		case u < fracIntelOnly:
			w.intelIPs[ip] = true
		case u < fracIntelOnly+fracIDSOnly:
			w.idsIPs[ip] = true
		default:
			w.intelIPs[ip] = true
			w.idsIPs[ip] = true
		}
		if w.intelIPs[ip] {
			w.flagWithVendors(ip)
		}
		if err := w.installAttackerEndpoint(ip); err != nil {
			return err
		}
	}
	for i := 0; i < w.Scale.CleanAttackerIPs; i++ {
		asn := w.attackerASN
		if i%2 == 1 {
			asn = secondASN
		}
		ip, err := w.IPDB.Allocate(asn)
		if err != nil {
			return err
		}
		w.CleanIPs = append(w.CleanIPs, ip)
		if err := w.installAttackerEndpoint(ip); err != nil {
			return err
		}
	}
	return nil
}

// installAttackerEndpoint opens the C2 ports the bulk markers use plus SMTP.
func (w *World) installAttackerEndpoint(ip netip.Addr) error {
	for _, port := range []uint16{443, 4444, 8080, 9001} {
		if err := malware.InstallC2(w.Fabric, ip, port); err != nil {
			return err
		}
	}
	return malware.InstallSMTPDrop(w.Fabric, ip)
}

// flagWithVendors applies the Figure 3(b) vendor-count distribution and the
// Figure 3(d) tag probabilities to one IP.
func (w *World) flagWithVendors(ip netip.Addr) {
	u := w.rng.Float64()
	var count int
	switch {
	case u < fracVendors1to2:
		count = 1 + w.rng.Intn(2)
	case u < fracVendors1to2+fracVendors3to4:
		count = 3 + w.rng.Intn(2)
	case u < fracVendors1to2+fracVendors3to4+fracVendors5to6:
		count = 5 + w.rng.Intn(2)
	default:
		count = 7 + w.rng.Intn(5)
	}
	var tags []threatintel.Tag
	for _, tp := range tagProbabilities {
		if w.rng.Float64() < tp.Prob {
			tags = append(tags, threatintel.Tag(tp.Tag))
		}
	}
	if len(tags) == 0 {
		tags = []threatintel.Tag{threatintel.TagTrojan}
	}
	vendors := w.Intel.Vendors()
	perm := w.rng.Perm(len(vendors))
	for i := 0; i < count && i < len(perm); i++ {
		vendors[perm[i]].Flag(ip, tags...)
	}
}

// plantWeights skews the attacker campaign toward the large permissive
// providers, as the paper's provider breakdown shows (Amazon's bar carries a
// visible unknown+malicious share).
var plantWeights = map[string]int{
	"Amazon": 20, "Cloudflare": 5, "ClouDNS": 3, "Godaddy": 4,
	"Tencent Cloud": 2, "Alibaba Cloud": 2, "Akamai": 2,
}

// plantURs runs the attacker campaign: zone-creation attempts across all
// providers with record mixes calibrated to Table 1.
func (w *World) plantURs() error {
	w.Plants.Refusals = make(map[hosting.RefusalReason]int)
	// Malicious plants only hit a bounded share of the targets (Table 1:
	// 68.48% of targets carry malicious URs).
	pool := make([]dns.Name, 0, len(w.Targets))
	for i, d := range w.Targets {
		if float64(i)/float64(len(w.Targets)) < maliciousDomainPoolFrac {
			pool = append(pool, d)
		}
	}

	// Weighted provider pool. A slice of the generic long tail is skipped by
	// attackers entirely, and evidenced (malicious) plants hit a further
	// subset — Table 1 finds malicious URs at 71% of affected providers.
	var weighted []*hosting.Provider
	maliciousOK := make(map[string]bool)
	for i, p := range w.Providers {
		wgt, ok := plantWeights[p.Name]
		if !ok {
			if w.rng.Float64() < 0.15 {
				continue // attackers never bother with this provider
			}
			wgt = 1
		}
		for k := 0; k < wgt; k++ {
			weighted = append(weighted, p)
		}
		if ok || i%4 != 0 {
			maliciousOK[p.Name] = true
		}
	}

	for i := 0; i < w.Scale.PlantZones; i++ {
		provider := weighted[w.rng.Intn(len(weighted))]
		account := provider.OpenAccount(
			fmt.Sprintf("mal-%s-%d", provider.Name, w.rng.Intn(10)), false)

		isA := w.rng.Float64() < fracAPlants
		var evidenced bool
		var domain dns.Name
		if isA {
			evidenced = w.rng.Float64() < fracAMalicious
		} else {
			evidenced = w.rng.Float64() < fracTXTWithEvidencedIP
		}
		if evidenced && !maliciousOK[provider.Name] {
			evidenced = false
		}
		if evidenced {
			domain = pool[w.rng.Intn(len(pool))]
		} else {
			domain = w.Targets[w.rng.Intn(len(w.Targets))]
		}

		w.Plants.Attempted++
		hz, err := provider.CreateZone(account.ID, domain)
		if err != nil {
			if reason, ok := hosting.IsRefusal(err); ok {
				w.Plants.Refusals[reason]++
				continue
			}
			return err
		}
		w.Plants.Created++

		if isA {
			ip := w.pickAttackerIP(evidenced)
			hz.Zone.MustAddRR(fmt.Sprintf("%s 120 IN A %s", string(domain), ip))
			w.recordPlant(ip, hz, domain, dns.TypeA)
			// Some attackers hide one level down: a www zone the top-domain
			// sweep never queries. Only subdomain recovery (E17) finds it.
			if provider.AllowSubdomain && w.rng.Float64() < 0.05 {
				www := domain.Child("www")
				if sub, err := provider.CreateZone(account.ID, www); err == nil {
					sub.Zone.MustAddRR(fmt.Sprintf("%s 120 IN A %s", string(www), ip))
					w.recordPlant(ip, sub, www, dns.TypeA)
				}
			}
			// A few attacker zones also carry an MX pointing into attacker
			// infrastructure — the record type the paper's future work
			// singles out.
			if w.rng.Float64() < 0.06 {
				hz.Zone.MustAddRR(fmt.Sprintf("%s 120 IN MX 10 relay%d.bulk-mail.biz",
					string(domain), w.rng.Intn(100)))
			}
		} else {
			w.plantTXT(hz, domain, evidenced)
		}
	}
	return nil
}

func (w *World) pickAttackerIP(evidenced bool) netip.Addr {
	if evidenced {
		return w.EvidencedIPs[w.rng.Intn(len(w.EvidencedIPs))]
	}
	return w.CleanIPs[w.rng.Intn(len(w.CleanIPs))]
}

func (w *World) recordPlant(ip netip.Addr, hz *hosting.HostedZone, domain dns.Name, qt dns.Type) {
	for _, nsAddr := range hz.NSAddrs() {
		w.plantsByIP[ip] = append(w.plantsByIP[ip], plantRef{ns: nsAddr, domain: domain, qtype: qt})
	}
}

// plantTXT writes the TXT payload mix: encrypted commands without IPs,
// masquerading SPF/DMARC with attacker IPs, and verification-style tokens.
func (w *World) plantTXT(hz *hosting.HostedZone, domain dns.Name, evidenced bool) {
	d := string(domain)
	switch {
	case evidenced:
		ip := w.pickAttackerIP(true)
		if w.rng.Float64() < fracMaliciousEmailTXT {
			if w.rng.Float64() < 0.8 {
				hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "v=spf1 ip4:%s ~all"`, d, ip))
			} else {
				hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "v=DMARC1; p=none; rua=mailto:ops@%s"`, d, ip))
			}
		} else {
			hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "cfg srv=%s port=443"`, d, ip))
		}
		w.recordPlant(ip, hz, domain, dns.TypeTXT)
	case w.rng.Float64() < fracTXTNoIP:
		// Encrypted command blobs: no IP, excluded from malicious analysis.
		hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "cmd=%08x%08x"`, d, w.rng.Uint32(), w.rng.Uint32()))
	case w.rng.Float64() < 0.5:
		ip := w.pickAttackerIP(false)
		hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "v=spf1 ip4:%s -all"`, d, ip))
		w.recordPlant(ip, hz, domain, dns.TypeTXT)
	default:
		hz.Zone.MustAddRR(fmt.Sprintf(`%s 120 IN TXT "xx-site-verification=%08x"`, d, w.rng.Uint32()))
	}
}

// buildCaseStudies reproduces §5.3: the Dark.IoT and Specter URs on ClouDNS,
// the EmerDNS service, and the masquerading speedtest.net SPF on Namecheap +
// CSC with three same-/24 servers.
func (w *World) buildCaseStudies() error {
	cloudns := w.ProviderByName["ClouDNS"]
	cs := &w.Case
	cs.OpenNICName = "controller.dark.libre"

	darkC2, err := w.IPDB.Allocate(w.attackerASN)
	if err != nil {
		return err
	}
	specterC2, err := w.IPDB.Allocate(w.attackerASN)
	if err != nil {
		return err
	}
	cs.DarkIoTC2, cs.SpecterC2 = darkC2, specterC2
	for _, ip := range []netip.Addr{darkC2, specterC2} {
		if err := w.installAttackerEndpoint(ip); err != nil {
			return err
		}
	}
	// Dark.IoT's C2 is known to a few vendors; Specter's is flagged by none
	// of the 74 (the paper's point) and is caught by IDS evidence alone.
	w.flagWithVendors(darkC2)
	w.intelIPs[darkC2] = true
	w.idsIPs[darkC2] = true
	w.idsIPs[specterC2] = true

	account := cloudns.OpenAccount("darkiot-op", false)
	for _, plant := range []struct {
		domain dns.Name
		ip     netip.Addr
	}{
		{"api.gitlab.com", darkC2},
		{"raw.pastebin.com", darkC2},
		{cs.OpenNICName, darkC2},
		{"ibm.com", specterC2},
		{"api.github.com", specterC2},
	} {
		hz, err := cloudns.CreateZone(account.ID, plant.domain)
		if err != nil {
			return fmt.Errorf("scenario: case-study plant %s: %w", plant.domain.String(), err)
		}
		hz.Zone.MustAddRR(fmt.Sprintf("%s 120 IN A %s", string(plant.domain), plant.ip))
		w.recordPlant(plant.ip, hz, plant.domain, dns.TypeA)
	}
	cs.ClouDNSNS = cloudns.NameserverAddrs()[0]

	// EmerDNS.
	emerAddr, err := w.IPDB.Allocate(w.attackerASN)
	if err != nil {
		return err
	}
	emer := malware.NewEmerDNS(map[dns.Name]netip.Addr{cs.OpenNICName: darkC2})
	if _, err := dnsio.AttachSim(w.Fabric, emerAddr, emer); err != nil {
		return err
	}
	cs.EmerDNSAddr = emerAddr

	// Masquerading SPF: three consecutive addresses in one /24.
	spfASN := w.IPDB.RegisterAS("SPF-CAMPAIGN-NET", "NL", 1)
	for i := 0; i < 3; i++ {
		ip, err := w.IPDB.Allocate(spfASN)
		if err != nil {
			return err
		}
		cs.SPFServers = append(cs.SPFServers, ip)
		if err := w.installAttackerEndpoint(ip); err != nil {
			return err
		}
		// All three are labeled malicious by threat intelligence (§5.3).
		w.flagWithVendors(ip)
		w.intelIPs[ip] = true
		w.idsIPs[ip] = true
	}
	spfTXT := fmt.Sprintf(`speedtest.net 120 IN TXT "v=spf1 ip4:%s ip4:%s ip4:%s -all"`,
		cs.SPFServers[0], cs.SPFServers[1], cs.SPFServers[2])
	for _, providerName := range []string{"Namecheap", "CSC"} {
		p := w.ProviderByName[providerName]
		acct := p.OpenAccount("spf-op", false)
		hz, err := p.CreateZone(acct.ID, "speedtest.net")
		if err != nil {
			return fmt.Errorf("scenario: SPF plant at %s: %w", providerName, err)
		}
		hz.Zone.MustAddRR(spfTXT)
		for _, ip := range cs.SPFServers {
			w.recordPlant(ip, hz, "speedtest.net", dns.TypeTXT)
		}
		for _, ns := range hz.NS {
			cs.SPFNS = append(cs.SPFNS, core.NameserverInfo{
				Addr: ns.Addr, Host: ns.Host, Provider: p.Name,
			})
		}
	}

	// The malware samples.
	cs.DarkIoTSamples = []*sandbox.Sample{
		malware.DarkIoT2021(1, cs.ClouDNSNS, cs.EmerDNSAddr, cs.OpenNICName),
		malware.DarkIoT2021(2, cs.ClouDNSNS, cs.EmerDNSAddr, cs.OpenNICName),
		malware.DarkIoT2023(cs.ClouDNSNS, cs.OpenNICName),
	}
	cs.SpecterSamples = []*sandbox.Sample{
		malware.Specter(1, cs.ClouDNSNS),
		malware.Specter(2, cs.ClouDNSNS),
		malware.Specter(3, cs.ClouDNSNS),
	}
	spfNS := cs.SPFNS[0].Addr
	cs.SPFSamples = []*sandbox.Sample{
		malware.Micropsia(0, spfNS),
		malware.Micropsia(1, spfNS),
		malware.AgentTesla(0, spfNS),
		malware.AgentTesla(1, spfNS),
		malware.AgentTesla(2, spfNS),
		malware.HarmlessSample(spfNS),
	}
	w.Samples = append(w.Samples, cs.DarkIoTSamples...)
	w.Samples = append(w.Samples, cs.SpecterSamples...)
	w.Samples = append(w.Samples, cs.SPFSamples...)
	return nil
}

// buildBulkSamples creates the measurement-scale malware corpus: every
// IDS-evidenced IP gets at least one specimen whose traffic the IDS will
// alert on, with markers drawn from the Figure 3(c) class mix.
func (w *World) buildBulkSamples() {
	// IPs needing IDS evidence but with no planted UR get one forced plant
	// on ClouDNS (most permissive) so a retrieval path exists.
	cloudns := w.ProviderByName["ClouDNS"]
	amazon := w.ProviderByName["Amazon"]
	forced := cloudns.OpenAccount("bulk-op", false)
	forcedAmazon := amazon.OpenAccount("bulk-op", false)
	var idsList []netip.Addr
	for _, ip := range w.EvidencedIPs {
		if w.idsIPs[ip] {
			idsList = append(idsList, ip)
		}
	}
	// Every evidenced IP must appear in at least one UR, or its calibrated
	// evidence (intel-only included) would never surface in the measurement.
	for _, ip := range w.EvidencedIPs {
		if len(w.plantsByIP[ip]) > 0 {
			continue
		}
		domain := w.Targets[w.rng.Intn(len(w.Targets))]
		hz, err := cloudns.CreateZone(forced.ID, domain)
		if err != nil {
			// ClouDNS refuses duplicates; Amazon allows them.
			if hz, err = amazon.CreateZone(forcedAmazon.ID, domain); err != nil {
				continue
			}
		}
		hz.Zone.MustAddRR(fmt.Sprintf("%s 120 IN A %s", string(domain), ip))
		w.recordPlant(ip, hz, domain, dns.TypeA)
	}

	pickMarker := func() (string, uint16) {
		u := w.rng.Float64()
		acc := 0.0
		for _, m := range alertMarkerMix {
			acc += m.Weight
			if u < acc {
				return m.Marker, m.Port
			}
		}
		last := alertMarkerMix[len(alertMarkerMix)-1]
		return last.Marker, last.Port
	}

	n := w.Scale.BulkSamples
	for i := 0; i < n; i++ {
		ip := idsList[i%len(idsList)]
		refs := w.plantsByIP[ip]
		if len(refs) == 0 {
			continue
		}
		ref := refs[w.rng.Intn(len(refs))]
		marker, port := pickMarker()
		w.Samples = append(w.Samples, malware.GenericURSample(
			i, "bulk", ref.ns, ref.domain, ref.qtype, marker, port))
	}
}

// setupSandbox allocates the victim machine and its default resolver.
func (w *World) setupSandbox() error {
	victimASN := w.IPDB.RegisterAS("VICTIM-ENTERPRISE", "US", 1)
	victim, err := w.IPDB.Allocate(victimASN)
	if err != nil {
		return err
	}
	w.VictimAddr = victim
	collectASN := w.IPDB.RegisterAS("MEASUREMENT-NET", "US", 1)
	if w.CollectorAddr, err = w.IPDB.Allocate(collectASN); err != nil {
		return err
	}
	// The victim's default resolver is the first open resolver.
	defaultRes := w.Resolvers.Resolvers[0].Addr
	w.Sandbox = sandbox.New(w.Fabric, victim, defaultRes)
	// Connectivity-check target used by several families.
	echo := simnet.HandlerFunc(func(dst []byte, _ netip.Addr, _ []byte) []byte { return append(dst, "ok"...) })
	_ = w.Fabric.Listen(simnet.Endpoint{Addr: netip.MustParseAddr("93.184.216.34"), Port: 80}, echo)
	return nil
}

// runSandbox evaluates the whole corpus.
func (w *World) runSandbox() {
	w.Reports = w.Sandbox.RunAll(w.Samples)
}

// URHunterConfig assembles the measurement configuration over this world.
func (w *World) URHunterConfig() *core.Config {
	resolvers := make([]netip.Addr, len(w.Resolvers.Resolvers))
	for i, r := range w.Resolvers.Resolvers {
		resolvers[i] = r.Addr
	}
	return &core.Config{
		Fabric:         w.Fabric,
		IPDB:           w.IPDB,
		Web:            w.Web,
		SrcAddr:        w.CollectorAddr,
		Targets:        w.Targets,
		Nameservers:    w.Nameservers,
		OpenResolvers:  resolvers,
		DelegatedNS:    w.Registry.Delegation,
		PDNS:           w.PDNS,
		Now:            Now,
		Intel:          w.Intel,
		IDS:            w.IDS,
		SandboxReports: w.Reports,
		Seed:           w.Seed,
		Parallelism:    w.Scale.Parallelism,
	}
}
