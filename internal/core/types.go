// Package core implements URHunter, the paper's measurement framework
// (§4): response collection against provider nameservers and open resolvers,
// suspicious-record determination with the Appendix B exclusion conditions,
// and malicious-behaviour analysis over threat intelligence and IDS-inspected
// sandbox traffic. The pipeline classifies every observed undelegated record
// as malicious, correct, protective, or unknown.
package core

import (
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/dns"
	"repro/internal/ipam"
	"repro/internal/websim"
)

// Category is URHunter's final record classification (§4.3).
type Category int

// Classification outcomes.
const (
	// CategoryUnknown: a suspicious record with no malicious evidence (yet).
	CategoryUnknown Category = iota
	// CategoryCorrect: explained by legitimate resolution, past delegation,
	// or parked/redirect pages (§4.2).
	CategoryCorrect
	// CategoryProtective: a provider's warning record for unhosted domains.
	CategoryProtective
	// CategoryMalicious: tied to a malicious IP via threat intel or IDS.
	CategoryMalicious
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CategoryUnknown:
		return "unknown"
	case CategoryCorrect:
		return "correct"
	case CategoryProtective:
		return "protective"
	case CategoryMalicious:
		return "malicious"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// CorrectReason explains which exclusion condition fired (Appendix B).
type CorrectReason string

// Exclusion reasons.
const (
	ReasonIPSubset   CorrectReason = "IP subset of legitimate records"
	ReasonASSubset   CorrectReason = "AS subset of legitimate records"
	ReasonGeoSubset  CorrectReason = "geolocation subset of legitimate records"
	ReasonCertSubset CorrectReason = "certificate subset of legitimate records"
	ReasonPDNS       CorrectReason = "present in passive-DNS history"
	ReasonParked     CorrectReason = "points to a parked page"
	ReasonRedirect   CorrectReason = "points to a redirect page"
	ReasonTXTMatch   CorrectReason = "TXT matches legitimate record"
	ReasonProtective CorrectReason = "matches provider protective record"
	ReasonNone       CorrectReason = ""
)

// NameserverInfo identifies one measured nameserver.
type NameserverInfo struct {
	Addr     netip.Addr
	Host     dns.Name
	Provider string
}

// TXTCategory is the classification of undelegated TXT rdata per the known
// categories of Van Der Toorn et al. ("TXTing 101"), which §4.2 applies.
type TXTCategory string

// TXT categories.
const (
	TXTSPF          TXTCategory = "spf"
	TXTDMARC        TXTCategory = "dmarc"
	TXTDKIM         TXTCategory = "dkim"
	TXTVerification TXTCategory = "domain-verification"
	TXTOther        TXTCategory = "other"
)

// EmailRelated reports whether the category is an email-policy record (the
// §5.2 statistic: 90.95% of malicious TXT URs are SPF/DMARC).
func (t TXTCategory) EmailRelated() bool {
	return t == TXTSPF || t == TXTDMARC
}

// UR is one observed undelegated record with its enrichment. Identity
// follows §5.1: a unique UR is (nameserver IP, domain, type, rdata) — the
// same data on two servers is two attacker options.
//
// A sweep holds millions of URs that repeat a few thousand facts, so a UR
// holds only what is its own and points at the rest: Server at the run's one
// NameserverInfo for that server, and its enrichment at the one record its
// (type, rdata) shares with every UR that carries it (Enrichment).
type UR struct {
	Server *NameserverInfo
	Domain dns.Name
	RData  string

	// CorrespondingIPs per §4.3: the A record's address, or the IPs embedded
	// in (or associated with) a TXT record. A UR's slice may be shared with
	// every UR of the same (type, rdata), clipped, so an append reallocates.
	CorrespondingIPs []netip.Addr

	// enr is the shared enrichment of (Type, RData); nil until the UR is
	// enriched, and never written through.
	enr *Enrichment

	// Classification output.
	Reason   CorrectReason
	Category Category

	TTL  uint32
	Type dns.Type
	// MaliciousByIntel / MaliciousByIDS record which evidence fired
	// (Figure 3(a)).
	MaliciousByIntel bool
	MaliciousByIDS   bool
}

// Enrichment is what a UR's (type, rdata) alone determines: an A record's
// AS, country and web probe, a TXT record's class. One immutable record is
// derived per distinct (type, rdata) and shared by every UR that carries it.
type Enrichment struct {
	// ASN, ASName and Country come from the IPDB, for A records.
	ASN     ipam.ASN
	ASName  string
	Country string
	// HTTP is the web probe of an A record's address.
	HTTP websim.ProbeResult
	// TXTClass is set for TXT records.
	TXTClass TXTCategory
}

// Enrichment returns a copy of u's enrichment; zero values when u has none.
func (u *UR) Enrichment() Enrichment {
	if u.enr == nil {
		return Enrichment{}
	}
	return *u.enr
}

// DomainProfile aggregates a domain's legitimate footprint, built from open
// resolvers — the database() of Appendix B. Collection workers funnel
// observations for the same domain through mu; after collection the profile
// is read-only.
type DomainProfile struct {
	Domain    dns.Name
	IPs       map[netip.Addr]bool
	ASNs      map[ipam.ASN]bool
	Countries map[string]bool
	CertFPs   map[string]bool
	TXTs      map[string]bool
	// Other holds legitimate records of further swept types (MX and
	// friends), keyed "TYPE|rdata" — the future-work extension of §6.
	Other map[string]bool

	mu sync.Mutex
}

// otherKey builds the Other-set key for a record type and rdata.
func otherKey(t dns.Type, rdata string) string {
	return t.String() + "|" + rdata
}

// AddA records a legitimate A observation with its enrichment.
func (p *DomainProfile) AddA(addr netip.Addr, asn ipam.ASN, country, certFP string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.IPs[addr] = true
	if asn != 0 {
		p.ASNs[asn] = true
	}
	if country != "" {
		p.Countries[country] = true
	}
	if certFP != "" {
		p.CertFPs[certFP] = true
	}
}

// hasIP reports whether addr was legitimately observed.
func (p *DomainProfile) hasIP(addr netip.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.IPs[addr]
}

// AddTXT records a legitimate TXT observation (presentation form).
func (p *DomainProfile) AddTXT(rdata string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.TXTs[rdata] = true
}

// AddOther records a legitimate observation of any further swept type.
func (p *DomainProfile) AddOther(t dns.Type, rdata string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Other[otherKey(t, rdata)] = true
}

// HasOther reports whether (type, rdata) was legitimately observed.
func (p *DomainProfile) HasOther(t dns.Type, rdata string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Other[otherKey(t, rdata)]
}

// NewDomainProfile creates an empty profile.
func NewDomainProfile(d dns.Name) *DomainProfile {
	return &DomainProfile{
		Domain:    d,
		IPs:       make(map[netip.Addr]bool),
		ASNs:      make(map[ipam.ASN]bool),
		Countries: make(map[string]bool),
		CertFPs:   make(map[string]bool),
		TXTs:      make(map[string]bool),
		Other:     make(map[string]bool),
	}
}

// CorrectDB is the collected legitimate-record database: one profile per
// domain. Its index is written only while it is built (CollectCorrect makes
// every target's profile before its sweep starts); the sweep adds to the
// profiles, and determine workers read them once the sweep is through.
type CorrectDB struct {
	profiles map[dns.Name]*DomainProfile
}

// NewCorrectDB creates an empty database.
func NewCorrectDB() *CorrectDB {
	return &CorrectDB{profiles: make(map[dns.Name]*DomainProfile)}
}

// Profile returns (creating if needed) the profile for a domain. It writes the
// index, so it must not run concurrently with any other method.
func (db *CorrectDB) Profile(d dns.Name) *DomainProfile {
	p := db.profiles[d]
	if p == nil {
		p = NewDomainProfile(d)
		db.profiles[d] = p
	}
	return p
}

// Lookup returns the profile for a domain if one exists.
func (db *CorrectDB) Lookup(d dns.Name) (*DomainProfile, bool) {
	p, ok := db.profiles[d]
	return p, ok
}

// protectiveKey is the (type, rdata) of one protective record in its
// server's set: a comparable struct, as Match runs once per collected UR and
// the fmt.Sprintf key it replaced was a top allocation site.
type protectiveKey struct {
	t     dns.Type
	rdata string
}

// ProtectiveDB holds one set of protective records per planned server, made
// with it: a set is written only by its server's fused job and read once the
// job's batch is emitted (the stream channel orders the two).
type ProtectiveDB struct {
	sets map[netip.Addr]map[protectiveKey]struct{}
}

// NewProtectiveDB creates an empty database for the planned servers.
func NewProtectiveDB(servers []NameserverInfo) *ProtectiveDB {
	db := &ProtectiveDB{sets: make(map[netip.Addr]map[protectiveKey]struct{}, len(servers))}
	for _, ns := range servers {
		db.sets[ns.Addr] = make(map[protectiveKey]struct{})
	}
	return db
}

// Add records a protective (server, type, rdata) observation; a server
// outside the plan has no set.
func (db *ProtectiveDB) Add(server netip.Addr, t dns.Type, rdata string) {
	if set := db.sets[server]; set != nil {
		set[protectiveKey{t: t, rdata: rdata}] = struct{}{}
	}
}

// Match reports whether the tuple is a known protective record.
func (db *ProtectiveDB) Match(server netip.Addr, t dns.Type, rdata string) bool {
	_, ok := db.sets[server][protectiveKey{t: t, rdata: rdata}]
	return ok
}
