package hosting

import (
	"context"
	"net/netip"

	"repro/internal/authority"
	"repro/internal/dns"
)

// nsResponder wraps a nameserver's authoritative engine with the provider's
// behaviours that depend on the *client*, not the zone: geo-distributed edge
// answers for CDN-customer domains. Those only rewrite answers from a hosted
// zone, so what the engine answers in wire form — refusals — it passes on.
type nsResponder struct {
	p  *Provider
	ns *Nameserver
}

// HandleQuery implements dnsio.Responder.
func (r *nsResponder) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	resp := r.ns.srv.HandleQuery(src, q)
	if resp == nil || len(resp.Answers) == 0 {
		return resp
	}
	geo := false
	if q.Question().Type == dns.TypeA {
		if z, ok := r.ns.srv.FindZone(q.Question().Name); ok {
			r.p.geomu.RLock()
			geo = r.p.geoZones[z]
			r.p.geomu.RUnlock()
		}
	}
	if !geo || r.p.edges == nil {
		return resp
	}
	country := r.p.deps.IPDB.CountryOf(src)
	edge, ok := r.p.EdgeAddr(country)
	if !ok {
		return resp
	}
	// Replace the A answers with the client's regional edge, keeping any
	// CNAME chain intact — what a CDN front does.
	var rewritten []dns.RR
	replaced := false
	for _, rr := range resp.Answers {
		if rr.Type() == dns.TypeA {
			if replaced {
				continue
			}
			rr.Data = &dns.A{Addr: edge}
			rr.TTL = 60
			replaced = true
		}
		rewritten = append(rewritten, rr)
	}
	resp.Answers = rewritten
	return resp
}

// AppendWire implements dnsio.WireResponder with the engine's wire path.
func (r *nsResponder) AppendWire(dst []byte, src netip.Addr, raw []byte, via string) ([]byte, bool) {
	return r.ns.srv.AppendWire(dst, src, raw, via)
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
				Data: dns.NewTXT("this domain is not configured on " + p.Name +
					"; see https://" + string(p.InfraDomain) + "/unconfigured"),
			})
		}
		return r
	}
}

// ProtectiveTXT returns the protective TXT payload the provider serves, so
// URHunter's protective-record collection can be validated in tests.
func (p *Provider) ProtectiveTXT() string {
	return "this domain is not configured on " + p.Name +
		"; see https://" + string(p.InfraDomain) + "/unconfigured"
}
