package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/hosting"
	"repro/internal/ids"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/psl"
	"repro/internal/registry"
	"repro/internal/resolver"
	"repro/internal/sandbox"
	"repro/internal/simnet"
	"repro/internal/threatintel"
	"repro/internal/tranco"
	"repro/internal/websim"
)

// Now is the virtual measurement date (the paper's Apr 2022 sweep).
var Now = time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)

// CaseStudy bundles the handles the §5.3 experiments need.
type CaseStudy struct {
	ClouDNSNS   netip.Addr // one ClouDNS nameserver carrying the family URs
	EmerDNSAddr netip.Addr
	OpenNICName dns.Name

	DarkIoTC2  netip.Addr
	SpecterC2  netip.Addr
	SPFServers []netip.Addr // the three same-/24 addresses
	SPFNS      []core.NameserverInfo

	DarkIoTSamples []*sandbox.Sample
	SpecterSamples []*sandbox.Sample
	SPFSamples     []*sandbox.Sample
}

// PlantStats reports attacker zone-creation outcomes.
type PlantStats struct {
	Attempted int
	Created   int
	Refusals  map[hosting.RefusalReason]int
}

// World is a fully generated measurement universe.
type World struct {
	Scale Scale
	Seed  int64

	Fabric   *simnet.Fabric
	IPDB     *ipam.DB
	PSL      *psl.List
	Web      *websim.World
	Registry *registry.Registry
	PDNS     *pdns.Store
	Tranco   *tranco.List

	Providers      []*hosting.Provider
	ProviderByName map[string]*hosting.Provider
	Nameservers    []core.NameserverInfo

	Resolvers *resolver.Pool
	Targets   []dns.Name

	Intel   *threatintel.Aggregator
	IDS     *ids.Engine
	Sandbox *sandbox.Sandbox
	Samples []*sandbox.Sample
	Reports []*sandbox.Report

	CollectorAddr netip.Addr
	VictimAddr    netip.Addr

	EvidencedIPs []netip.Addr
	CleanIPs     []netip.Addr

	Case   CaseStudy
	Plants PlantStats

	rng         *rand.Rand
	attackerASN ipam.ASN
	selfHostASN ipam.ASN
	webASNs     []ipam.ASN
	// plantsByIP maps an attacker IP to (nameserver, domain) pairs whose UR
	// resolves to it — the retrieval options malware samples use.
	plantsByIP map[netip.Addr][]plantRef
	// idsIPs is the subset of EvidencedIPs that need sandbox-traffic
	// evidence (IDS-only or both).
	idsIPs   map[netip.Addr]bool
	intelIPs map[netip.Addr]bool
}

type plantRef struct {
	ns     netip.Addr
	domain dns.Name
	qtype  dns.Type
}

// Generate builds a world at the given scale, deterministic in seed, and
// runs the sandbox corpus so the analysis inputs are ready.
func Generate(scale Scale, seed int64) (*World, error) {
	w := &World{
		Scale:          scale,
		Seed:           seed,
		Fabric:         simnet.New(seed),
		IPDB:           ipam.New(),
		PSL:            psl.Default(),
		PDNS:           pdns.NewStore(),
		ProviderByName: make(map[string]*hosting.Provider),
		rng:            rand.New(rand.NewSource(seed)),
		plantsByIP:     make(map[netip.Addr][]plantRef),
		idsIPs:         make(map[netip.Addr]bool),
		intelIPs:       make(map[netip.Addr]bool),
	}
	w.Web = websim.NewWorld(w.Fabric)
	w.Tranco = tranco.Generate(scale.TrancoSize, seed+1)

	var err error
	if w.Registry, err = registry.New(w.Fabric, w.IPDB, w.PDNS); err != nil {
		return nil, err
	}
	if err := w.createTLDs(); err != nil {
		return nil, err
	}
	w.pickTargets()
	if err := w.createProviders(); err != nil {
		return nil, err
	}
	if err := w.hostLegitimateSites(); err != nil {
		return nil, err
	}
	roots := []netip.Addr{w.Registry.RootAddr()}
	if w.Resolvers, err = resolver.NewPool(w.Fabric, w.IPDB, roots, scale.OpenResolvers); err != nil {
		return nil, err
	}
	w.Intel = threatintel.NewAggregator(threatintel.DefaultVendorNames())
	w.IDS = ids.NewEngine(ids.DefaultRules()...)
	if err := w.buildAttackerInfrastructure(); err != nil {
		return nil, err
	}
	// Case studies claim their zones first: several target providers refuse
	// duplicate domains, so the random campaign must not squat them.
	if err := w.buildCaseStudies(); err != nil {
		return nil, err
	}
	if err := w.plantURs(); err != nil {
		return nil, err
	}
	w.buildBulkSamples()
	if err := w.setupSandbox(); err != nil {
		return nil, err
	}
	w.runSandbox()
	return w, nil
}

// createTLDs stands up every TLD and multi-label public suffix the world
// uses (single-label first, so gov.cn hangs off cn).
func (w *World) createTLDs() error {
	single := []dns.Name{
		"com", "net", "org", "io", "dev", "info", "test", "us", "cn", "uk",
		"de", "fr", "jp", "kr", "ru", "br", "in", "it", "nl", "na", "gd",
		"fm", "kp",
	}
	multi := []dns.Name{"gov.cn", "edu.cn", "co.uk", "com.br", "gov.kp", "edu.kp", "gov.gd", "edu.fm"}
	for _, t := range single {
		if err := w.Registry.CreateTLD(t, 2); err != nil {
			return err
		}
	}
	for _, t := range multi {
		if err := w.Registry.CreateTLD(t, 1); err != nil {
			return err
		}
	}
	return nil
}

// caseFQDNs are the case-study FQDN targets (§5.3 swept all FQDNs of the
// top sites; we include the ones the malware families use).
var caseFQDNs = []dns.Name{"api.gitlab.com", "raw.pastebin.com", "api.github.com"}

// caseSLDs must be in the target set regardless of scale (their paper ranks
// are pinned in the tranco generator, but small scales truncate above them).
var caseSLDs = []dns.Name{"github.com", "ibm.com", "speedtest.net", "gitlab.com", "pastebin.com"}

// pickTargets selects the measured domain set.
func (w *World) pickTargets() {
	seen := make(map[dns.Name]bool)
	add := func(d dns.Name) {
		if !seen[d] {
			seen[d] = true
			w.Targets = append(w.Targets, d)
		}
	}
	for _, d := range w.Tranco.Domains(w.Scale.Targets) {
		add(d)
	}
	for _, d := range caseSLDs {
		add(d)
	}
	for _, d := range caseFQDNs {
		add(d)
	}
}

func (w *World) deps(seed int64) hosting.Deps {
	// The country index is seed mod |Countries|, taken non-negative: a
	// negative seed would otherwise index before the list.
	n := int64(len(ipam.Countries))
	return hosting.Deps{
		Fabric: w.Fabric, IPDB: w.IPDB, Registry: w.Registry, PSL: w.PSL,
		Web: w.Web, Roots: []netip.Addr{w.Registry.RootAddr()},
		Country: ipam.Countries[(seed%n+n)%n], Seed: seed,
	}
}

// createProviders stands up the named providers (Appendix C presets, the
// Figure 2 vendors, and the SPF case-study hosts) plus the generic fleet.
func (w *World) createProviders() error {
	scaleServers := func(p hosting.Policy) hosting.Policy {
		n := int(float64(p.ServerCount) * w.Scale.ServerScale)
		if n < 2 {
			n = 2
		}
		p.ServerCount = n
		return p
	}
	named := []hosting.Policy{
		scaleServers(hosting.PresetCloudflare()),
		scaleServers(hosting.PresetAmazon()),
		scaleServers(hosting.PresetClouDNS()),
		scaleServers(hosting.PresetGodaddy()),
		scaleServers(hosting.PresetTencent()),
		scaleServers(hosting.PresetAlibaba()),
		scaleServers(hosting.PresetBaidu()),
		scaleServers(akamaiPolicy()),
		scaleServers(nhnPolicy()),
		// The SPF case study needs exactly 11 nameservers across these two;
		// they are never scaled.
		namecheapPolicy(),
		cscPolicy(),
	}
	for i, pol := range named {
		if w.Scale.PostDisclosure {
			pol = hosting.PostDisclosure(pol, w.Tranco.Domains(25))
		}
		p, err := hosting.NewProvider(pol, w.deps(w.Seed+100+int64(i)))
		if err != nil {
			return fmt.Errorf("scenario: provider %s: %w", pol.Name, err)
		}
		w.addProvider(p)
	}
	for i := 0; i < w.Scale.GenericProviders; i++ {
		pol := w.genericPolicy(i)
		p, err := hosting.NewProvider(pol, w.deps(w.Seed+500+int64(i)))
		if err != nil {
			return fmt.Errorf("scenario: provider %s: %w", pol.Name, err)
		}
		w.addProvider(p)
	}
	return nil
}

func (w *World) addProvider(p *hosting.Provider) {
	w.Providers = append(w.Providers, p)
	w.ProviderByName[p.Name] = p
	for _, ns := range p.Nameservers() {
		w.Nameservers = append(w.Nameservers, core.NameserverInfo{
			Addr: ns.Addr, Host: ns.Host, Provider: p.Name,
		})
	}
}

// akamaiPolicy models Akamai Edge DNS: CDN provider with fleet-wide zone
// sync, which produces the large correct-UR bar of Figure 2.
func akamaiPolicy() hosting.Policy {
	return hosting.Policy{
		Name: "Akamai", InfraDomain: "akadns.test",
		NSAllocation: hosting.AccountFixed, ServerCount: 48, NSPerZone: 2,
		Verification: hosting.VerifyNone, ServeUnverified: true,
		AllowSubdomain: true, AllowSLD: true, AllowETLD: false,
		AllowDuplicateCrossUser: true,
		PaidSyncAllNS:           true,
		CDNEdges:                true,
	}
}

// nhnPolicy models NHN Cloud: a mid-size host serving protective records.
func nhnPolicy() hosting.Policy {
	return hosting.Policy{
		Name: "NHN Cloud", InfraDomain: "nhndns.test",
		NSAllocation: hosting.GlobalFixed, ServerCount: 3, NSPerZone: 2,
		Verification: hosting.VerifyNone, ServeUnverified: true,
		AllowSLD: true, AllowETLD: true,
		ProtectiveRecords: true,
	}
}

// namecheapPolicy and cscPolicy host the masquerading-SPF records (11
// nameservers across the two providers).
func namecheapPolicy() hosting.Policy {
	return hosting.Policy{
		Name: "Namecheap", InfraDomain: "registrar-servers.test",
		NSAllocation: hosting.GlobalFixed, ServerCount: 6, NSPerZone: 6,
		Verification: hosting.VerifyNone, ServeUnverified: true,
		AllowSubdomain: true, AllowSLD: true, AllowETLD: true,
	}
}

func cscPolicy() hosting.Policy {
	return hosting.Policy{
		Name: "CSC", InfraDomain: "cscdns.test",
		NSAllocation: hosting.GlobalFixed, ServerCount: 5, NSPerZone: 5,
		Verification: hosting.VerifyNone, ServeUnverified: true,
		AllowSubdomain: true, AllowSLD: true, AllowETLD: true,
	}
}

// genericPolicy synthesizes one of the "over 400" long-tail providers.
func (w *World) genericPolicy(i int) hosting.Policy {
	r := w.rng
	pol := hosting.Policy{
		Name:        fmt.Sprintf("Provider-%03d", i),
		InfraDomain: dns.Name(fmt.Sprintf("p%03d-dns.test", i)),
		NSAllocation: [3]hosting.NSAllocation{
			hosting.GlobalFixed, hosting.GlobalFixed, hosting.AccountFixed,
		}[r.Intn(3)],
		ServerCount:             2 + r.Intn(w.Scale.GenericServersAvg*2-2),
		NSPerZone:               2,
		Verification:            hosting.VerifyNone,
		ServeUnverified:         true,
		AllowSubdomain:          r.Float64() < 0.6,
		AllowSLD:                true,
		AllowETLD:               r.Float64() < 0.7,
		AllowDuplicateCrossUser: r.Float64() < 0.3,
		SupportsRetrieval:       r.Float64() < 0.4,
		ProtectiveRecords:       r.Float64() < 0.12,
		OpenRecursive:           r.Float64() < 0.02,
	}
	if pol.AllowUnregistered = r.Float64() < 0.25; pol.AllowUnregistered {
		pol.AllowSubdomain = true
	}
	// Long-tail protective providers run small fleets; large protective
	// fleets would crowd out the paper's Figure 2 ordering.
	if pol.ProtectiveRecords && pol.ServerCount > 2 {
		pol.ServerCount = 2
	}
	return pol
}
