package hosting

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/psl"
	"repro/internal/registry"
	"repro/internal/resolver"
	"repro/internal/simnet"
	"repro/internal/websim"
	"repro/internal/zone"
)

// Deps bundles the world infrastructure a provider plugs into.
type Deps struct {
	Fabric   *simnet.Fabric
	IPDB     *ipam.DB
	Registry *registry.Registry
	PSL      *psl.List
	Web      *websim.World // optional: used to stand up the protective site
	// Roots enables verification modes and OpenRecursive; may be nil when
	// neither is used.
	Roots []netip.Addr
	// Country the provider's infrastructure is registered in.
	Country string
	// Seed drives nameserver assignment randomness.
	Seed int64
}

// Nameserver is one provider-operated authoritative server.
type Nameserver struct {
	Host dns.Name
	Addr netip.Addr
	srv  *authority.Server
}

// Server exposes the underlying authoritative engine (tests, stats).
func (n *Nameserver) Server() *authority.Server { return n.srv }

// Account is a customer (or attacker) account at a provider.
type Account struct {
	ID   string
	Paid bool

	assigned []*Nameserver // populated lazily for account-fixed allocation
}

// HostedZone is a zone created through a provider's portal.
type HostedZone struct {
	Domain   dns.Name
	Account  *Account
	Zone     *zone.Zone
	NS       []*Nameserver
	Verified bool
	// Challenge is the TXT token to publish when the provider uses
	// VerifyTXTChallenge.
	Challenge string
	CreatedAt time.Time
	// GeoDistributed marks a legitimate CDN-customer zone whose A answers
	// vary by client country.
	GeoDistributed bool

	provider *Provider
	served   bool
}

// NSHosts returns the assigned nameserver hostnames.
func (h *HostedZone) NSHosts() []dns.Name {
	out := make([]dns.Name, len(h.NS))
	for i, ns := range h.NS {
		out[i] = ns.Host
	}
	return out
}

// NSAddrs returns the assigned nameserver IPs.
func (h *HostedZone) NSAddrs() []netip.Addr {
	out := make([]netip.Addr, len(h.NS))
	for i, ns := range h.NS {
		out[i] = ns.Addr
	}
	return out
}

// Provider is a DNS hosting service.
type Provider struct {
	Policy
	deps Deps

	nameservers []*Nameserver
	allNS       map[dns.Name]*Nameserver

	protectiveAddr netip.Addr
	edges          map[string]netip.Addr // country -> CDN edge IP

	rec *resolver.Recursive // for verification / open recursion

	mu       sync.Mutex
	rng      *rand.Rand
	accounts map[string]*Account
	zones    map[dns.Name][]*HostedZone // by domain
	geomu    sync.RWMutex
	geoZones map[*zone.Zone]bool
}

// ErrNoAccount is returned when an operation references an unknown account.
var ErrNoAccount = errors.New("hosting: unknown account")

// Refusal is the error CreateZone returns when policy rejects the request.
type Refusal struct {
	Provider string
	Domain   dns.Name
	Reason   RefusalReason
}

// Error implements error.
func (r *Refusal) Error() string {
	return fmt.Sprintf("hosting: %s refused %s: %s", r.Provider, r.Domain.String(), r.Reason)
}

func (p *Provider) refuse(domain dns.Name, reason RefusalReason) error {
	return &Refusal{Provider: p.Name, Domain: domain, Reason: reason}
}

// IsRefusal reports whether err is a policy refusal and returns its reason.
func IsRefusal(err error) (RefusalReason, bool) {
	var r *Refusal
	if errors.As(err, &r) {
		return r.Reason, true
	}
	return "", false
}

// NewProvider stands up a provider: nameserver IPs on the fabric, the
// provider's own infrastructure delegation, the protective website, and CDN
// edges when configured.
func NewProvider(pol Policy, deps Deps) (*Provider, error) {
	if pol.ServerCount < 1 {
		pol.ServerCount = 2
	}
	if pol.NSPerZone < 1 {
		pol.NSPerZone = 2
	}
	if pol.NSPerZone > pol.ServerCount {
		pol.NSPerZone = pol.ServerCount
	}
	if deps.Country == "" {
		deps.Country = "US"
	}
	p := &Provider{
		Policy:   pol,
		deps:     deps,
		rng:      rand.New(rand.NewSource(deps.Seed)),
		accounts: make(map[string]*Account),
		zones:    make(map[dns.Name][]*HostedZone),
		geoZones: make(map[*zone.Zone]bool),
		allNS:    make(map[dns.Name]*Nameserver),
	}
	blocks := pol.ServerCount/2000 + 2
	asn := deps.IPDB.RegisterAS(fmt.Sprintf("%s-NET", pol.Name), deps.Country, blocks)

	infraGlue := make(map[dns.Name]netip.Addr)
	for i := 0; i < pol.ServerCount; i++ {
		addr, err := deps.IPDB.Allocate(asn)
		if err != nil {
			return nil, err
		}
		ns := &Nameserver{
			Host: dns.CanonicalName("ns" + strconv.Itoa(i+1) + "." + string(pol.InfraDomain)),
			Addr: addr,
			srv:  authority.NewServer(),
		}
		if fb := p.fallbackFor(len(deps.Roots) > 0); fb != nil {
			ns.srv.SetFallback(fb)
		}
		if _, err := dnsio.AttachSim(deps.Fabric, addr, ns.srv.WithEdges(p.edgeFor)); err != nil {
			return nil, err
		}
		p.nameservers = append(p.nameservers, ns)
		p.allNS[ns.Host] = ns
		infraGlue[ns.Host] = addr
	}

	// Delegate the provider's infrastructure domain so NS hostnames resolve.
	if deps.Registry != nil {
		infraZone := zone.New(pol.InfraDomain)
		infraZone.MustAdd(pol.InfraDomain, 3600,
			zone.StandardSOA("ns1."+pol.InfraDomain, "hostmaster."+pol.InfraDomain))
		var hosts []dns.Name
		for _, ns := range p.nameservers {
			infraZone.MustAdd(ns.Host, 3600, &dns.A{Addr: ns.Addr})
			infraZone.MustAdd(pol.InfraDomain, 3600, &dns.NS{Host: ns.Host})
			hosts = append(hosts, ns.Host)
		}
		for _, ns := range p.nameservers {
			if err := ns.srv.AddZone(infraZone); err != nil {
				return nil, err
			}
		}
		if err := deps.Registry.SetDelegation(pol.InfraDomain, hosts, infraGlue, time.Now()); err != nil {
			return nil, err
		}
	}

	// Protective website: one IP serving the provider's warning page.
	if pol.ProtectiveRecords {
		addr, err := deps.IPDB.Allocate(asn)
		if err != nil {
			return nil, err
		}
		p.protectiveAddr = addr
		if deps.Web != nil {
			site := &websim.Site{
				Addr: addr, Kind: websim.KindProviderWarning, Title: pol.Name,
				Cert: websim.NewCert("parking."+string(pol.InfraDomain), pol.Name+" CA"),
			}
			if err := deps.Web.Install(site); err != nil {
				return nil, err
			}
		}
	}

	// CDN edges per country, each with a real web presence fronting the
	// customer sites behind the provider's certificate.
	if pol.CDNEdges {
		p.edges = make(map[string]netip.Addr, len(ipam.Countries))
		for _, c := range ipam.Countries {
			addr, err := deps.IPDB.Allocate(asn)
			if err != nil {
				return nil, err
			}
			p.edges[c] = addr
			if deps.Web != nil {
				site := &websim.Site{
					Addr: addr, Kind: websim.KindCDNEdge,
					Title: pol.Name + " edge " + c,
					Cert: websim.NewCert("*.cdn."+string(pol.InfraDomain),
						pol.Name+" CA", "cdn."+string(pol.InfraDomain)),
				}
				if err := deps.Web.Install(site); err != nil {
					return nil, err
				}
			}
		}
	}

	if len(deps.Roots) > 0 {
		src, err := deps.IPDB.Allocate(asn)
		if err != nil {
			return nil, err
		}
		client := dnsio.NewClient(&dnsio.SimTransport{Fabric: deps.Fabric, Src: src})
		client.SeedIDs(deps.Seed + 1)
		p.rec = resolver.NewRecursive(client, deps.Roots)
	}
	return p, nil
}

// Nameservers returns the provider's nameserver fleet.
func (p *Provider) Nameservers() []*Nameserver {
	out := make([]*Nameserver, len(p.nameservers))
	copy(out, p.nameservers)
	return out
}

// NameserverAddrs returns the fleet's IPs.
func (p *Provider) NameserverAddrs() []netip.Addr {
	out := make([]netip.Addr, len(p.nameservers))
	for i, ns := range p.nameservers {
		out[i] = ns.Addr
	}
	return out
}

// EdgeAddr returns the CDN edge IP for a country (falls back to US).
func (p *Provider) EdgeAddr(country string) (netip.Addr, bool) {
	if p.edges == nil {
		return netip.Addr{}, false
	}
	if a, ok := p.edges[country]; ok {
		return a, true
	}
	a, ok := p.edges["US"]
	return a, ok
}

// OpenAccount creates (or returns) an account.
func (p *Provider) OpenAccount(id string, paid bool) *Account {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.accounts[id]; ok {
		return a
	}
	a := &Account{ID: id, Paid: paid}
	p.accounts[id] = a
	return a
}

// classify buckets the requested domain for the supported-domain policy.
func (p *Provider) classify(domain dns.Name) (psl.Category, bool) {
	cat := p.deps.PSL.Classify(domain)
	registered := false
	if p.deps.Registry != nil {
		// A domain counts as registered if it or its registrable ancestor is
		// delegated.
		if p.deps.Registry.IsDelegated(domain) {
			registered = true
		} else if reg, ok := p.deps.PSL.RegistrableDomain(domain); ok && p.deps.Registry.IsDelegated(reg) {
			registered = true
		}
	}
	return cat, registered
}

// CreateZone runs the full portal flow of Appendix C: policy checks,
// nameserver allocation, optional ownership verification, and activation.
// The returned HostedZone's Zone can then be filled with arbitrary records —
// including undelegated ones.
func (p *Provider) CreateZone(accountID string, domain dns.Name) (*HostedZone, error) {
	p.mu.Lock()
	account, ok := p.accounts[accountID]
	p.mu.Unlock()
	if !ok {
		return nil, ErrNoAccount
	}
	if err := domain.Validate(); err != nil {
		return nil, err
	}

	reserved := p.reservedSet()
	if reserved[domain] {
		return nil, p.refuse(domain, RefusedReserved)
	}
	cat, registered := p.classify(domain)
	switch cat {
	case psl.CategoryETLD:
		if !p.AllowETLD {
			return nil, p.refuse(domain, RefusedETLD)
		}
	case psl.CategorySLD:
		if !p.AllowSLD {
			return nil, p.refuse(domain, RefusedSLD)
		}
		if !registered && !p.AllowUnregistered {
			return nil, p.refuse(domain, RefusedUnregistered)
		}
	case psl.CategorySubdomain:
		if !p.AllowSubdomain {
			return nil, p.refuse(domain, RefusedSubdomain)
		}
		if p.SubdomainNeedsPaid && !account.Paid {
			return nil, p.refuse(domain, RefusedSubdomainPaid)
		}
		if !registered && !p.AllowUnregistered {
			return nil, p.refuse(domain, RefusedUnregistered)
		}
	default:
		if !p.AllowUnregistered {
			return nil, p.refuse(domain, RefusedUnregistered)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	existing := p.zones[domain]
	for _, hz := range existing {
		if hz.Account == account && !p.AllowDuplicateSingleUser {
			return nil, p.refuse(domain, RefusedDuplicateSingle)
		}
		if hz.Account != account && !p.AllowDuplicateCrossUser {
			return nil, p.refuse(domain, RefusedDuplicateCross)
		}
	}

	ns, err := p.allocateNSLocked(account, domain)
	if err != nil {
		return nil, err
	}

	hz := &HostedZone{
		Domain:    domain,
		Account:   account,
		Zone:      zone.New(domain),
		NS:        ns,
		CreatedAt: time.Now(),
		Challenge: fmt.Sprintf("urhunter-verify-%08x", p.rng.Uint32()),
		provider:  p,
	}
	hz.Zone.MustAdd(domain, 3600, zone.StandardSOA(ns[0].Host, "hostmaster."+p.InfraDomain))
	for _, n := range ns {
		hz.Zone.MustAdd(domain, 3600, &dns.NS{Host: n.Host})
	}

	// Ownership verification. The decisive behaviour for URs: with
	// ServeUnverified set, the zone is served even when verification has not
	// happened (or failed).
	switch p.Verification {
	case VerifyNone:
		hz.Verified = true
	case VerifyNSDelegation:
		hz.Verified = p.verifyNSDelegationLocked(hz)
	case VerifyTXTChallenge:
		hz.Verified = false // completed later via CompleteTXTVerification
	}
	if hz.Verified || p.ServeUnverified {
		if err := p.serveLocked(hz); err != nil {
			return nil, err
		}
	}
	p.zones[domain] = append(p.zones[domain], hz)
	return hz, nil
}

// allocateNSLocked picks the nameserver set for a new zone per policy.
func (p *Provider) allocateNSLocked(account *Account, domain dns.Name) ([]*Nameserver, error) {
	if p.PaidSyncAllNS && account.Paid {
		return p.availableForDomainLocked(domain, len(p.nameservers))
	}
	switch p.NSAllocation {
	case GlobalFixed:
		set := p.nameservers[:p.NSPerZone]
		for _, ns := range set {
			if ns.srv.HasZone(domain) {
				return nil, p.refuse(domain, RefusedExhausted)
			}
		}
		return set, nil
	case AccountFixed:
		if account.assigned == nil {
			start := p.rng.Intn(len(p.nameservers))
			for i := 0; i < p.NSPerZone; i++ {
				account.assigned = append(account.assigned, p.nameservers[(start+i)%len(p.nameservers)])
			}
		}
		// Cloudflare ensures different users hosting the same domain get
		// different nameservers: if any of the account's servers already
		// serves this domain, assign a fresh set.
		conflict := false
		for _, ns := range account.assigned {
			if ns.srv.HasZone(domain) {
				conflict = true
				break
			}
		}
		if !conflict {
			return account.assigned, nil
		}
		return p.availableForDomainLocked(domain, p.NSPerZone)
	case RandomPool:
		return p.randomAvailableLocked(domain, p.NSPerZone)
	}
	return nil, p.refuse(domain, RefusedExhausted)
}

// availableForDomainLocked returns up to want servers not yet serving the
// domain, scanning in order.
func (p *Provider) availableForDomainLocked(domain dns.Name, want int) ([]*Nameserver, error) {
	var out []*Nameserver
	for _, ns := range p.nameservers {
		if !ns.srv.HasZone(domain) {
			out = append(out, ns)
			if len(out) == want {
				return out, nil
			}
		}
	}
	if len(out) == 0 {
		return nil, p.refuse(domain, RefusedExhausted)
	}
	return out, nil
}

// randomAvailableLocked draws want distinct servers that do not yet serve
// the domain — Amazon's pool draw, including the exhaustion behaviour an
// attacker can trigger by repeatedly hosting the same domain.
func (p *Provider) randomAvailableLocked(domain dns.Name, want int) ([]*Nameserver, error) {
	perm := p.rng.Perm(len(p.nameservers))
	var out []*Nameserver
	for _, idx := range perm {
		ns := p.nameservers[idx]
		if !ns.srv.HasZone(domain) {
			out = append(out, ns)
			if len(out) == want {
				return out, nil
			}
		}
	}
	// Not enough free servers: the pool is exhausted for this domain.
	return nil, p.refuse(domain, RefusedExhausted)
}

// serveLocked attaches the hosted zone to its assigned nameservers.
func (p *Provider) serveLocked(hz *HostedZone) error {
	for i, ns := range hz.NS {
		if err := ns.srv.AddZone(hz.Zone); err != nil {
			// Roll back partial attachment.
			for _, done := range hz.NS[:i] {
				done.srv.RemoveZone(hz.Domain)
			}
			return p.refuse(hz.Domain, RefusedExhausted)
		}
	}
	hz.served = true
	return nil
}

// Served reports whether the zone is answered by its nameservers.
func (h *HostedZone) Served() bool { return h.served }

// verifyNSDelegationLocked implements mitigation option (1).
func (p *Provider) verifyNSDelegationLocked(hz *HostedZone) bool {
	if p.deps.Registry == nil {
		return false
	}
	for _, ns := range hz.NS {
		if p.deps.Registry.IsDelegatedTo(hz.Domain, ns.Host) {
			return true
		}
	}
	return false
}

// RecheckNSDelegation re-runs mitigation option (1) for a zone created
// before the owner finished pointing the TLD's NS records at the assigned
// servers — the normal onboarding order under the post-disclosure policy.
// The zone starts being served once the check passes.
func (p *Provider) RecheckNSDelegation(hz *HostedZone) bool {
	if p.Verification != VerifyNSDelegation {
		return hz.Verified
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if hz.Verified && hz.served {
		return true
	}
	if p.verifyNSDelegationLocked(hz) {
		hz.Verified = true
		if !hz.served {
			if err := p.serveLocked(hz); err != nil {
				return false
			}
		}
		return true
	}
	return false
}

// CompleteTXTVerification implements mitigation option (2): the provider
// resolves the challenge label through normal resolution and activates the
// zone only when the token is published in the domain's real zone — which an
// attacker without control of the delegation cannot do.
func (p *Provider) CompleteTXTVerification(ctx context.Context, hz *HostedZone) (bool, error) {
	if p.Verification != VerifyTXTChallenge {
		return hz.Verified, nil
	}
	if p.rec == nil {
		return false, errors.New("hosting: provider has no resolver for verification")
	}
	label := hz.Domain.Child("_urhunter-challenge")
	txts, err := p.rec.LookupTXT(ctx, label)
	if err != nil {
		return false, err
	}
	for _, txt := range txts {
		if txt == hz.Challenge {
			p.mu.Lock()
			hz.Verified = true
			var serveErr error
			if !hz.served {
				serveErr = p.serveLocked(hz)
			}
			p.mu.Unlock()
			return true, serveErr
		}
	}
	return false, nil
}

// DeleteZone removes a hosted zone from the portal and its nameservers.
func (p *Provider) DeleteZone(hz *HostedZone) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deleteZoneLocked(hz)
}

func (p *Provider) deleteZoneLocked(hz *HostedZone) {
	if hz.served {
		for _, ns := range hz.NS {
			if z, ok := ns.srv.Zone(hz.Domain); ok && z == hz.Zone {
				ns.srv.RemoveZone(hz.Domain)
			}
		}
		hz.served = false
	}
	zs := p.zones[hz.Domain]
	for i, other := range zs {
		if other == hz {
			p.zones[hz.Domain] = append(zs[:i], zs[i+1:]...)
			break
		}
	}
	if len(p.zones[hz.Domain]) == 0 {
		delete(p.zones, hz.Domain)
	}
	p.geomu.Lock()
	delete(p.geoZones, hz.Zone)
	p.geomu.Unlock()
}

// Retrieve implements the domain-retrieval mechanism: a verified owner
// evicts every other account's zone for the domain. ownerVerified models the
// out-of-band ownership proof the provider demands.
func (p *Provider) Retrieve(domain dns.Name, byAccount string, ownerVerified bool) error {
	if !p.SupportsRetrieval {
		return fmt.Errorf("hosting: %s has no domain-retrieval mechanism", p.Name)
	}
	if !ownerVerified {
		return p.refuse(domain, RefusedVerification)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, hz := range append([]*HostedZone(nil), p.zones[domain]...) {
		if hz.Account.ID != byAccount {
			p.deleteZoneLocked(hz)
		}
	}
	return nil
}

// ZonesFor returns all hosted zones for a domain.
func (p *Provider) ZonesFor(domain dns.Name) []*HostedZone {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*HostedZone, len(p.zones[domain]))
	copy(out, p.zones[domain])
	return out
}

// HostedDomains returns every domain with at least one zone.
func (p *Provider) HostedDomains() []dns.Name {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]dns.Name, 0, len(p.zones))
	for d := range p.zones {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkGeoDistributed flags one hosted zone for per-country edge answers.
// The flag is per zone object, not per domain: an attacker's duplicate zone
// for the same domain keeps serving its own records verbatim.
func (p *Provider) MarkGeoDistributed(hz *HostedZone) {
	p.geomu.Lock()
	defer p.geomu.Unlock()
	hz.GeoDistributed = true
	p.geoZones[hz.Zone] = true
}
