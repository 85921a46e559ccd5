package hosting

import (
	"context"
	"net/netip"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/zone"
)

// edgeFor is the Edges the provider's nameservers answer through: with CDN
// edges configured, a geo-distributed zone's A answers go to the edge of the
// client's country. Only hosted answers are rewritten, so what the engine
// refuses in wire form it still refuses there.
func (p *Provider) edgeFor(z *zone.Zone, src netip.Addr) netip.Addr {
	if p.edges == nil {
		return netip.Addr{}
	}
	p.geomu.RLock()
	geo := p.geoZones[z]
	p.geomu.RUnlock()
	if !geo {
		return netip.Addr{}
	}
	edge, _ := p.EdgeAddr(p.deps.IPDB.CountryOf(src))
	return edge
}

// fallbackFor builds the out-of-zone behaviour for the provider's
// nameservers, nil when it is plain refusal: neither protective records nor
// open recursion (which needs roots to resolve from).
func (p *Provider) fallbackFor(roots bool) authority.Fallback {
	if !p.ProtectiveRecords && !(p.OpenRecursive && roots) {
		return nil
	}
	return func(src netip.Addr, q *dns.Message) *dns.Message {
		if p.OpenRecursive && p.rec != nil {
			// The §4 misconfiguration: the "authoritative" server resolves
			// unhosted names recursively and relays the answer.
			resolved, err := p.rec.Resolve(context.Background(), q.Question().Name, q.Question().Type)
			if err != nil {
				return nil
			}
			r := q.Reply()
			r.Header.RCode = resolved.Header.RCode
			r.Answers = resolved.Answers
			return r
		}
		if !p.ProtectiveRecords {
			return nil // plain REFUSED
		}
		// Protective records: an A record pointing at the provider's warning
		// site, and an explanatory TXT.
		r := q.Reply()
		r.Header.Authoritative = true
		switch q.Question().Type {
		case dns.TypeA:
			r.Answers = append(r.Answers, dns.RR{
				Name: q.Question().Name, Class: dns.ClassINET, TTL: 300,
				Data: &dns.A{Addr: p.protectiveAddr},
			})
		case dns.TypeTXT:
			r.Answers = append(r.Answers, dns.RR{
				Name: q.Question().Name, Class: dns.ClassINET, TTL: 300,
				Data: dns.NewTXT(p.ProtectiveTXT()),
			})
		}
		return r
	}
}

// ProtectiveTXT returns the protective TXT payload the provider's
// nameservers serve for a name they do not host.
func (p *Provider) ProtectiveTXT() string {
	return "this domain is not configured on " + p.Name +
		"; see https://" + string(p.InfraDomain) + "/unconfigured"
}
