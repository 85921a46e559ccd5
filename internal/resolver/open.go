package resolver

import (
	"context"
	"fmt"
	"net/netip"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/simnet"
)

// OpenResolver is a recursive resolver exposed as a DNS service on the
// fabric — the kind of worldwide vantage point URHunter leans on to collect
// geo-distributed correct records. Its fabric address doubles as the client
// source IP for upstream queries, so geo-aware authoritative servers (CDN
// fronts) answer it with the edge records of its region.
type OpenResolver struct {
	Addr    netip.Addr
	Country string
	rec     *Recursive
}

// HandleQuery implements dnsio.Responder: recursion-desired queries are
// resolved iteratively; others are refused.
func (o *OpenResolver) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	r := q.Reply()
	r.Header.RecursionAvailable = true
	if !q.Header.RecursionDesired || len(q.Questions) != 1 {
		r.Header.RCode = dns.RCodeRefused
		return r
	}
	resolved, err := o.rec.Resolve(context.Background(), q.Question().Name, q.Question().Type)
	if err != nil {
		r.Header.RCode = dns.RCodeServFail
		return r
	}
	r.Header.RCode = resolved.Header.RCode
	r.Answers = resolved.Answers
	r.Authority = resolved.Authority
	return r
}

// Resolver exposes the underlying recursive engine (tests and the correct-
// record collector may call it directly instead of via the wire).
func (o *OpenResolver) Resolver() *Recursive { return o.rec }

// NewOpenResolver creates an open resolver at addr, resolving from roots,
// and attaches it to the fabric.
func NewOpenResolver(fabric *simnet.Fabric, addr netip.Addr, country string, roots []netip.Addr) (*OpenResolver, error) {
	return newOpenResolver(fabric, addr, country, roots, newShared())
}

func newOpenResolver(fabric *simnet.Fabric, addr netip.Addr, country string, roots []netip.Addr, s *shared) (*OpenResolver, error) {
	client := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: addr})
	client.Retries = 1
	o := &OpenResolver{
		Addr:    addr,
		Country: country,
		rec:     newRecursive(client, roots, s),
	}
	if _, err := dnsio.AttachSim(fabric, addr, o); err != nil {
		return nil, err
	}
	return o, nil
}

// Pool is a set of open resolvers spread across countries. They share one
// zone-cut cache and one store of response contents; each keeps its own
// answers and their lifetimes.
type Pool struct {
	Resolvers []*OpenResolver
}

// NewPool creates n open resolvers on the fabric, spread round-robin across
// ipam.Countries, each hosted in a per-country "ISP" AS.
func NewPool(fabric *simnet.Fabric, ipdb *ipam.DB, roots []netip.Addr, n int) (*Pool, error) {
	p := &Pool{}
	s := newShared()
	countryASN := make(map[string]ipam.ASN)
	for i := 0; i < n; i++ {
		country := ipam.Countries[i%len(ipam.Countries)]
		asn, ok := countryASN[country]
		if !ok {
			asn = ipdb.RegisterAS(fmt.Sprintf("ISP-%s-RESOLVERS", country), country, 1)
			countryASN[country] = asn
		}
		addr, err := ipdb.Allocate(asn)
		if err != nil {
			return nil, err
		}
		o, err := newOpenResolver(fabric, addr, country, roots, s)
		if err != nil {
			return nil, err
		}
		p.Resolvers = append(p.Resolvers, o)
	}
	return p, nil
}

// ByCountry groups the pool's resolvers by country code.
func (p *Pool) ByCountry() map[string][]*OpenResolver {
	out := make(map[string][]*OpenResolver)
	for _, o := range p.Resolvers {
		out[o.Country] = append(out[o.Country], o)
	}
	return out
}
