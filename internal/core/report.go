package core

import (
	"net/netip"
	"sort"

	"repro/internal/dns"
	idspkg "repro/internal/ids"
	"repro/internal/threatintel"
)

// Table1Row is one row of Table 1: totals and malicious counts across the
// five dimensions for a record type.
type Table1Row struct {
	Label                string
	Domains              int
	MaliciousDomains     int
	Nameservers          int
	MaliciousNameservers int
	Providers            int
	MaliciousProviders   int
	URs                  int
	MaliciousURs         int
	IPs                  int
	MaliciousIPs         int
}

// Table1 computes the suspicious-record overview (per type and total) from
// the suspicious set.
func (r *Result) Table1() []Table1Row {
	rows := map[dns.Type]*table1Acc{
		dns.TypeA:   newTable1Acc("A"),
		dns.TypeTXT: newTable1Acc("TXT"),
	}
	total := newTable1Acc("Total")
	for _, u := range r.Suspicious {
		if acc, ok := rows[u.Type]; ok {
			acc.add(u)
		}
		total.add(u)
	}
	return []Table1Row{rows[dns.TypeA].row(), rows[dns.TypeTXT].row(), total.row()}
}

type table1Acc struct {
	label        string
	domains      map[dns.Name]bool
	malDomains   map[dns.Name]bool
	servers      map[netip.Addr]bool
	malServers   map[netip.Addr]bool
	providers    map[string]bool
	malProviders map[string]bool
	urs          int
	malURs       int
	ips          map[netip.Addr]bool
	malIPs       map[netip.Addr]bool
}

func newTable1Acc(label string) *table1Acc {
	return &table1Acc{
		label:   label,
		domains: map[dns.Name]bool{}, malDomains: map[dns.Name]bool{},
		servers: map[netip.Addr]bool{}, malServers: map[netip.Addr]bool{},
		providers: map[string]bool{}, malProviders: map[string]bool{},
		ips: map[netip.Addr]bool{}, malIPs: map[netip.Addr]bool{},
	}
}

func (a *table1Acc) add(u *UR) {
	a.urs++
	a.domains[u.Domain] = true
	a.servers[u.Server.Addr] = true
	a.providers[u.Server.Provider] = true
	for _, ip := range u.CorrespondingIPs {
		a.ips[ip] = true
	}
	if u.Category == CategoryMalicious {
		a.malURs++
		a.malDomains[u.Domain] = true
		a.malServers[u.Server.Addr] = true
		a.malProviders[u.Server.Provider] = true
		for _, ip := range u.CorrespondingIPs {
			if u.MaliciousByIntel || u.MaliciousByIDS {
				a.malIPs[ip] = true
			}
		}
	}
}

func (a *table1Acc) row() Table1Row {
	return Table1Row{
		Label:   a.label,
		Domains: len(a.domains), MaliciousDomains: len(a.malDomains),
		Nameservers: len(a.servers), MaliciousNameservers: len(a.malServers),
		Providers: len(a.providers), MaliciousProviders: len(a.malProviders),
		URs: a.urs, MaliciousURs: a.malURs,
		IPs: len(a.ips), MaliciousIPs: len(a.malIPs),
	}
}

// ProviderBreakdown is one bar of Figure 2: a provider's UR counts by
// category.
type ProviderBreakdown struct {
	Provider   string
	Correct    int
	Protective int
	Unknown    int
	Malicious  int
}

// Total is the provider's UR count.
func (b ProviderBreakdown) Total() int {
	return b.Correct + b.Protective + b.Unknown + b.Malicious
}

// Figure2 groups every collected UR by provider and returns the topN
// providers by total URs, largest first.
func (r *Result) Figure2(topN int) []ProviderBreakdown {
	acc := make(map[string]*ProviderBreakdown)
	for _, u := range r.URs {
		b, ok := acc[u.Server.Provider]
		if !ok {
			b = &ProviderBreakdown{Provider: u.Server.Provider}
			acc[u.Server.Provider] = b
		}
		switch u.Category {
		case CategoryCorrect:
			b.Correct++
		case CategoryProtective:
			b.Protective++
		case CategoryMalicious:
			b.Malicious++
		default:
			b.Unknown++
		}
	}
	out := make([]ProviderBreakdown, 0, len(acc))
	for _, b := range acc {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Provider < out[j].Provider
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// maliciousIPEvidence gathers, per malicious IP, which evidence fired.
func (r *Result) maliciousIPEvidence() map[netip.Addr]struct{ intel, ids bool } {
	out := make(map[netip.Addr]struct{ intel, ids bool })
	for _, u := range r.Suspicious {
		if u.Category != CategoryMalicious {
			continue
		}
		for _, ip := range u.CorrespondingIPs {
			ev := out[ip]
			if r.Analyzer != nil {
				if r.Cfg().Intel != nil && r.Cfg().Intel.IsMalicious(ip) {
					ev.intel = true
				}
				if r.Analyzer.idsIPs[ip] {
					ev.ids = true
				}
			}
			if ev.intel || ev.ids {
				out[ip] = ev
			}
		}
	}
	return out
}

// cfg access for report computations.
func (r *Result) Cfg() *Config {
	if r.Analyzer == nil {
		return &Config{}
	}
	return r.Analyzer.cfg
}

// LabelReasons is Figure 3(a): why malicious IPs were labeled.
type LabelReasons struct {
	IntelOnly int
	IDSOnly   int
	Both      int
}

// Total is the malicious IP count.
func (l LabelReasons) Total() int { return l.IntelOnly + l.IDSOnly + l.Both }

// Figure3a computes the evidence breakdown over malicious IPs.
func (r *Result) Figure3a() LabelReasons {
	var out LabelReasons
	for _, ev := range r.maliciousIPEvidence() {
		switch {
		case ev.intel && ev.ids:
			out.Both++
		case ev.intel:
			out.IntelOnly++
		case ev.ids:
			out.IDSOnly++
		}
	}
	return out
}

// Figure3b buckets intel-flagged malicious IPs by how many vendors flag
// them, using the paper's bucket boundaries (1-2, 3-4, 5-6, 7-11).
func (r *Result) Figure3b() map[string]int {
	out := map[string]int{"1-2": 0, "3-4": 0, "5-6": 0, "7-11": 0}
	intel := r.Cfg().Intel
	if intel == nil {
		return out
	}
	for ip, ev := range r.maliciousIPEvidence() {
		if !ev.intel {
			continue
		}
		n := intel.Lookup(ip).VendorCount()
		switch {
		case n <= 2:
			out["1-2"]++
		case n <= 4:
			out["3-4"]++
		case n <= 6:
			out["5-6"]++
		default:
			out["7-11"]++
		}
	}
	return out
}

// Figure3c tallies ≥medium IDS alerts toward malicious IPs by classtype.
func (r *Result) Figure3c() map[idspkg.Classtype]int {
	out := make(map[idspkg.Classtype]int)
	if r.Analyzer == nil {
		return out
	}
	malicious := r.maliciousIPEvidence()
	for _, a := range r.Analyzer.Alerts() {
		if a.Rule.Severity < idspkg.SeverityMedium {
			continue
		}
		if _, ok := malicious[a.Flow.Dst]; !ok {
			continue
		}
		out[a.Rule.Classtype]++
	}
	return out
}

// Figure3d tallies vendor tags across intel-flagged malicious IPs (an IP
// may carry several tags).
func (r *Result) Figure3d() map[threatintel.Tag]int {
	out := make(map[threatintel.Tag]int)
	intel := r.Cfg().Intel
	if intel == nil {
		return out
	}
	for ip, ev := range r.maliciousIPEvidence() {
		if !ev.intel {
			continue
		}
		for _, tag := range intel.Lookup(ip).Tags {
			out[tag]++
		}
	}
	return out
}

// TXTEmailShare returns the fraction of malicious TXT URs acting as
// email-policy records (SPF/DMARC) — the 90.95% statistic of §5.2.
func (r *Result) TXTEmailShare() (emailRelated, maliciousTXT int) {
	for _, u := range r.Suspicious {
		if u.Type != dns.TypeTXT || u.Category != CategoryMalicious {
			continue
		}
		maliciousTXT++
		if u.Enrichment().TXTClass.EmailRelated() {
			emailRelated++
		}
	}
	return emailRelated, maliciousTXT
}

// CategoryCounts tallies all collected URs by final category.
func (r *Result) CategoryCounts() map[Category]int {
	out := make(map[Category]int)
	for _, u := range r.URs {
		out[u.Category]++
	}
	return out
}
