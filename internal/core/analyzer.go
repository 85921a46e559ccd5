package core

import (
	"net/netip"
	"sync"

	"repro/internal/dns"
	idspkg "repro/internal/ids"
)

// Analyzer implements §4.3: malicious-behaviour analysis over threat
// intelligence and IDS-inspected sandbox traffic.
type Analyzer struct {
	cfg *Config

	// idsIPs caches the set of IPs with ≥medium-severity alerts.
	idsIPs map[netip.Addr]bool
	// alerts keeps every fired alert for the Figure 3(c) breakdown.
	alerts []idspkg.Alert
}

// NewAnalyzer builds the analyzer and pre-computes the IDS evidence set from
// the sandbox reports.
func NewAnalyzer(cfg *Config) *Analyzer {
	a := &Analyzer{cfg: cfg, idsIPs: make(map[netip.Addr]bool)}
	if cfg.IDS != nil {
		for _, rep := range cfg.SandboxReports {
			alerts := cfg.IDS.InspectReport(rep)
			a.alerts = append(a.alerts, alerts...)
			for _, ip := range idspkg.AlertedIPs(alerts, idspkg.SeverityMedium) {
				a.idsIPs[ip] = true
			}
		}
	}
	return a
}

// Alerts returns every alert fired over the sandbox corpus.
func (a *Analyzer) Alerts() []idspkg.Alert { return a.alerts }

// AnalyzeParallel labels suspicious URs as malicious when a corresponding IP
// is flagged by threat intelligence or carries IDS-alerted traffic. TXT
// records first inherit corresponding IPs from same-server same-domain A
// records; TXT records with no corresponding IP at all stay unknown (the
// paper excludes them from the malicious determination). The TXT↔A
// correspondence index is the one genuine barrier — it needs every A record
// before any TXT record can be finished — and runs serially first; the label
// pass then touches each record exactly once, so it is fanned out over
// workers in chunks.
func (a *Analyzer) AnalyzeParallel(suspicious []*UR, workers int) {
	a.attachTXTCorrespondence(suspicious)
	if workers <= 1 || len(suspicious) < 2*minLabelChunk {
		a.label(suspicious)
		return
	}
	chunk := (len(suspicious) + workers - 1) / workers
	if chunk < minLabelChunk {
		chunk = minLabelChunk
	}
	var wg sync.WaitGroup
	for start := 0; start < len(suspicious); start += chunk {
		end := start + chunk
		if end > len(suspicious) {
			end = len(suspicious)
		}
		wg.Add(1)
		go func(part []*UR) {
			defer wg.Done()
			a.label(part)
		}(suspicious[start:end])
	}
	wg.Wait()
}

// minLabelChunk keeps AnalyzeParallel from spawning goroutines over record
// counts where the fan-out costs more than it saves.
const minLabelChunk = 128

// label applies the intel/IDS evidence to each record, stopping the IP walk
// as soon as both evidence kinds have fired. Read-only over the shared
// evidence sets, so chunks of the same slice can run concurrently.
func (a *Analyzer) label(suspicious []*UR) {
	for _, u := range suspicious {
		if u.Category != CategoryUnknown {
			continue
		}
		for _, ip := range u.CorrespondingIPs {
			if !u.MaliciousByIntel && a.cfg.Intel != nil && a.cfg.Intel.IsMalicious(ip) {
				u.MaliciousByIntel = true
			}
			if !u.MaliciousByIDS && a.idsIPs[ip] {
				u.MaliciousByIDS = true
			}
			if u.MaliciousByIntel && u.MaliciousByIDS {
				break
			}
		}
		if u.MaliciousByIntel || u.MaliciousByIDS {
			u.Category = CategoryMalicious
		}
	}
}

// attachTXTCorrespondence implements the §4.3 correspondence rule: when an A
// and a TXT record are hosted on the same nameserver for the same domain,
// the A record's IP is included among the TXT record's corresponding IPs.
func (a *Analyzer) attachTXTCorrespondence(urs []*UR) {
	type key struct {
		server netip.Addr
		domain dns.Name
	}
	aIPs := make(map[key][]netip.Addr, len(urs)/2+1)
	for _, u := range urs {
		if u.Type == dns.TypeA && len(u.CorrespondingIPs) > 0 {
			k := key{u.Server.Addr, u.Domain}
			aIPs[k] = append(aIPs[k], u.CorrespondingIPs...)
		}
	}
	for _, u := range urs {
		if u.Type != dns.TypeTXT {
			continue
		}
		extra := aIPs[key{u.Server.Addr, u.Domain}]
		if len(extra) == 0 {
			continue
		}
		seen := make(map[netip.Addr]bool, len(u.CorrespondingIPs)+len(extra))
		for _, ip := range u.CorrespondingIPs {
			seen[ip] = true
		}
		for _, ip := range extra {
			if !seen[ip] {
				seen[ip] = true
				u.CorrespondingIPs = append(u.CorrespondingIPs, ip)
			}
		}
	}
}
