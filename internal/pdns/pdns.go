// Package pdns is the passive-DNS substrate: a historical record store
// standing in for the six years of delegated-resolution data the paper
// obtained from "one of the largest DNS providers in the world". URHunter's
// correct-record determination (§4.2, Appendix B condition 5) asks whether an
// observed record ever appeared in a domain's legitimate resolution history —
// which is how records left over from past delegations are excluded.
package pdns

import (
	"sort"
	"sync"
	"time"

	"repro/internal/dns"
)

// Observation is one historical resolution fact: the domain answered with
// this rdata for this type during [FirstSeen, LastSeen].
type Observation struct {
	Domain    dns.Name
	Type      dns.Type
	RData     string // presentation form of the record payload
	FirstSeen time.Time
	LastSeen  time.Time
}

// Store holds observations indexed by domain.
type Store struct {
	mu       sync.RWMutex
	byDomain map[dns.Name][]Observation
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{byDomain: make(map[dns.Name][]Observation)}
}

// Observe records that domain resolved to rdata at the given time, merging
// with an existing observation of the same (type, rdata) by extending its
// seen-range.
func (s *Store) Observe(domain dns.Name, t dns.Type, rdata string, when time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obs := s.byDomain[domain]
	for i := range obs {
		if obs[i].Type == t && obs[i].RData == rdata {
			if when.Before(obs[i].FirstSeen) {
				obs[i].FirstSeen = when
			}
			if when.After(obs[i].LastSeen) {
				obs[i].LastSeen = when
			}
			return
		}
	}
	s.byDomain[domain] = append(obs, Observation{
		Domain: domain, Type: t, RData: rdata, FirstSeen: when, LastSeen: when,
	})
}

// ObserveRR records a resource record observation.
func (s *Store) ObserveRR(rr dns.RR, when time.Time) {
	s.Observe(rr.Name, rr.Type(), rr.Data.String(), when)
}

// Seen reports whether (domain, type, rdata) was ever observed with a
// LastSeen at or after the cutoff — the paper uses a six-year window, so the
// caller passes now.AddDate(-6, 0, 0) as the cutoff. A zero cutoff matches
// the entire history.
func (s *Store) Seen(domain dns.Name, t dns.Type, rdata string, cutoff time.Time) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, o := range s.byDomain[domain] {
		if o.Type == t && o.RData == rdata && !o.LastSeen.Before(cutoff) {
			return true
		}
	}
	return false
}

// Subdomains returns every proper subdomain of domain that has resolution
// history — the §6 future-work recovery ("we can recover legitimate
// subdomains from PDNS data and measure whether they appear in URs").
func (s *Store) Subdomains(domain dns.Name) []dns.Name {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []dns.Name
	for d := range s.byDomain {
		if d.IsProperSubdomainOf(domain) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
