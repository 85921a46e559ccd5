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
// resolved iteratively; others are refused. A plain query is answered in
// wire form instead (AppendWire).
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

// AppendWire implements dnsio.WireResponder for a plain query
// (dns.ParseQuery) of class IN with RD set: it resolves the question once and
// appends the reply HandleQuery builds and dnsio packs for it. The question's
// id is found by the key of its wire bytes, so a cached answer is found
// without the name becoming a dns.Name. A resolved answer the pool stores
// goes out as the query's ID, QR|RD|RA|RCODE, and the stored wire form after
// its flags; one too long for the UDP payload size, and one a resolver that
// caches nothing resolved, is built from the message and packed, truncated
// over UDP. A failed resolution is SERVFAIL. Every other shape is declined
// before anything is resolved.
func (o *OpenResolver) AppendWire(dst []byte, _ netip.Addr, raw []byte, via string) ([]byte, bool) {
	const qr, rd, ra = 1 << 15, 1 << 8, 1 << 7
	var buf [255]byte
	q, ok := dns.ParseQuery(buf[:0], raw)
	if !ok || q.Flags&rd == 0 || q.Class != dns.ClassINET {
		return dst, false
	}
	now := o.rec.seconds()
	id := o.rec.questionID(questionKey(q.Name, q.Type))
	a, hit := o.rec.cacheGet(id, now)
	if hit {
		asked := a.msg.Questions[0]
		hit = string(asked.Name) == string(q.Name) && asked.Type == q.Type
	}
	if !hit {
		var err error
		a, err = o.rec.walk(context.Background(), dns.Question{Name: dns.Name(q.Name), Type: q.Type, Class: q.Class}, id, 0, now)
		if err != nil {
			return q.AppendReply(dst, qr|rd|ra|uint16(dns.RCodeServFail)), true
		}
	}
	maxSize := 0 // stream- and HTTP-framed replies go whole
	if via == dnsio.ViaUDP {
		maxSize = dnsio.ClampUDPSize(q.UDPSize)
	}
	if a.wire != "" && (maxSize == 0 || len(a.wire) <= maxSize) {
		dst = append(dst, byte(q.ID>>8), byte(q.ID), a.wire[2]|rd>>8, a.wire[3])
		return append(dst, a.wire[4:]...), true
	}
	r := dns.Message{
		Header: dns.Header{ID: q.ID, Response: true, RecursionDesired: true, RecursionAvailable: true,
			RCode: a.msg.Header.RCode},
		Questions: a.msg.Questions, // the question asked, whichever path gave a
		Answers:   a.msg.Answers,
		Authority: a.msg.Authority,
	}
	out, err := r.AppendPackTruncated(dst, maxSize)
	if err != nil {
		return q.AppendReply(dst, qr|rd|ra|uint16(dns.RCodeServFail)), true
	}
	return out, true
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
// zone-cut cache, one numbering of questions and one store of response
// contents; each keeps its own answers and their lifetimes.
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
