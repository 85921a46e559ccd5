// Package registry operates the simulated DNS delegation hierarchy: the root
// zone, TLD zones with their authoritative servers on the fabric, and the
// registration state that says which nameservers a domain is *actually*
// delegated to. The gap between this delegation state and what hosting
// providers are willing to serve is precisely where undelegated records live.
//
// Delegation changes are timestamped and mirrored into the passive-DNS store,
// giving URHunter the historical view it needs to exclude past delegations.
package registry

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/simnet"
	"repro/internal/zone"
)

// tldEntry is one TLD's serving state.
type tldEntry struct {
	zone   *zone.Zone
	server *authority.Server
	addrs  []netip.Addr
}

// Registry owns the root and TLD infrastructure.
type Registry struct {
	fabric *simnet.Fabric
	ipdb   *ipam.DB
	pdns   *pdns.Store // optional sink for delegation history

	infraASN ipam.ASN

	mu          sync.RWMutex
	rootZone    *zone.Zone
	rootServer  *authority.Server
	rootAddr    netip.Addr
	tlds        map[dns.Name]*tldEntry
	delegations map[dns.Name][]dns.Name // domain -> current NS hosts
}

// New creates a registry with a running root server on the fabric. The pdns
// store may be nil.
func New(fabric *simnet.Fabric, ipdb *ipam.DB, store *pdns.Store) (*Registry, error) {
	r := &Registry{
		fabric:      fabric,
		ipdb:        ipdb,
		pdns:        store,
		tlds:        make(map[dns.Name]*tldEntry),
		delegations: make(map[dns.Name][]dns.Name),
	}
	r.infraASN = ipdb.RegisterAS("ROOT-REGISTRY-INFRA", "US", 2)
	r.rootZone = zone.New(dns.Root)
	r.rootZone.MustAdd(dns.Root, 86400, zone.StandardSOA("a.root-servers.test", "hostmaster.root-servers.test"))
	r.rootServer = authority.NewServer()
	if err := r.rootServer.AddZone(r.rootZone); err != nil {
		return nil, err
	}
	addr, err := ipdb.Allocate(r.infraASN)
	if err != nil {
		return nil, err
	}
	r.rootAddr = addr
	if _, err := dnsio.AttachSim(fabric, addr, r.rootServer); err != nil {
		return nil, err
	}
	return r, nil
}

// RootAddr returns the root server's IP.
func (r *Registry) RootAddr() netip.Addr {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rootAddr
}

// CreateTLD brings up a TLD: a zone, an authoritative server on `servers`
// fabric IPs, and the delegation + glue in the root zone.
func (r *Registry) CreateTLD(tld dns.Name, servers int) error {
	if tld.CountLabels() < 1 {
		return fmt.Errorf("registry: %q is not a valid suffix", tld)
	}
	if servers < 1 {
		servers = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tlds[tld]; ok {
		return fmt.Errorf("registry: TLD %s already exists", tld.String())
	}
	z := zone.New(tld)
	z.MustAdd(tld, 86400, zone.StandardSOA("ns0.nic."+tld, "hostmaster.nic."+tld))
	srv := authority.NewServer()
	if err := srv.AddZone(z); err != nil {
		return err
	}
	e := &tldEntry{zone: z, server: srv}
	// Multi-label suffixes (gov.cn) are delegated from their parent TLD's
	// zone when we operate it; single-label TLDs hang off the root.
	parentZone := r.rootZone
	if pe, _, ok := r.tldFor(tld); ok {
		parentZone = pe.zone
	}
	for i := 0; i < servers; i++ {
		addr, err := r.ipdb.Allocate(r.infraASN)
		if err != nil {
			return err
		}
		if _, err := dnsio.AttachSim(r.fabric, addr, srv); err != nil {
			return err
		}
		e.addrs = append(e.addrs, addr)
		// Register NS + glue in the parent and the TLD's own zone.
		nsHost := dns.CanonicalName(fmt.Sprintf("ns%d.nic.%s", i, string(tld)))
		if err := parentZone.Add(dns.RR{Name: tld, Class: dns.ClassINET, TTL: 86400,
			Data: &dns.NS{Host: nsHost}}); err != nil {
			return err
		}
		if err := parentZone.Add(dns.RR{Name: nsHost, Class: dns.ClassINET, TTL: 86400,
			Data: &dns.A{Addr: addr}}); err != nil {
			return err
		}
		if err := z.Add(dns.RR{Name: tld, Class: dns.ClassINET, TTL: 86400,
			Data: &dns.NS{Host: nsHost}}); err != nil {
			return err
		}
		if err := z.Add(dns.RR{Name: nsHost, Class: dns.ClassINET, TTL: 86400,
			Data: &dns.A{Addr: addr}}); err != nil {
			return err
		}
	}
	r.tlds[tld] = e
	return nil
}

// tldFor returns the TLD entry responsible for a domain. Multi-label public
// suffixes are registered as their own "TLDs" here (gov.cn has its own zone
// in the real world too).
func (r *Registry) tldFor(domain dns.Name) (*tldEntry, dns.Name, bool) {
	// Longest registered suffix wins.
	for n := domain.Parent(); n != dns.Root; n = n.Parent() {
		if e, ok := r.tlds[n]; ok {
			return e, n, true
		}
	}
	return nil, dns.Root, false
}

// SetDelegation points a domain's NS set at the given nameserver hosts,
// replacing any previous delegation, and writes glue for any in-bailiwick
// hosts. The change is recorded in passive DNS at the given time.
func (r *Registry) SetDelegation(domain dns.Name, nsHosts []dns.Name, glue map[dns.Name]netip.Addr, when time.Time) error {
	if len(nsHosts) == 0 {
		return fmt.Errorf("registry: empty NS set for %s", domain.String())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _, ok := r.tldFor(domain)
	if !ok {
		return fmt.Errorf("registry: no TLD serves %s", domain.String())
	}
	e.zone.RemoveRRset(domain, dns.TypeNS)
	for _, host := range nsHosts {
		rr := dns.RR{Name: domain, Class: dns.ClassINET, TTL: 86400, Data: &dns.NS{Host: host}}
		if err := e.zone.Add(rr); err != nil {
			return err
		}
		if r.pdns != nil {
			r.pdns.ObserveRR(rr, when)
		}
		if addr, ok := glue[host]; ok && host.IsSubdomainOf(domain) {
			if err := e.zone.Add(dns.RR{Name: host, Class: dns.ClassINET, TTL: 86400,
				Data: &dns.A{Addr: addr}}); err != nil {
				return err
			}
		}
	}
	r.delegations[domain] = append([]dns.Name(nil), nsHosts...)
	return nil
}

// Delegation returns the current NS hosts for a domain.
func (r *Registry) Delegation(domain dns.Name) []dns.Name {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ns := r.delegations[domain]
	out := make([]dns.Name, len(ns))
	copy(out, ns)
	return out
}

// IsDelegated reports whether the domain has any delegation.
func (r *Registry) IsDelegated(domain dns.Name) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.delegations[domain]
	return ok
}

// IsDelegatedTo reports whether the domain's current delegation includes the
// given nameserver host.
func (r *Registry) IsDelegatedTo(domain dns.Name, nsHost dns.Name) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, h := range r.delegations[domain] {
		if h == nsHost {
			return true
		}
	}
	return false
}
