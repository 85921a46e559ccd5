// Package authority implements the authoritative nameserver engine used by
// every simulated hosting-provider nameserver, TLD server, and the root. It
// turns zone.Zone lookups into complete DNS responses: authoritative answers
// with CNAME chasing, referrals with glue, NXDOMAIN/NoData with SOA, and a
// pluggable fallback for queries about domains the server does not host —
// which is exactly where hosting providers' "protective records" live.
//
// Most of what a hosting nameserver is asked in a sweep is about names it
// hosts no zone for, and a server without a fallback refuses all of them, so
// it refuses in wire form (AppendWire): no query is decoded and no reply
// built for a refusal.
package authority

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/zone"
)

// maxCNAMEChain bounds in-server CNAME chasing.
const maxCNAMEChain = 8

// Fallback produces a response for a query whose name matches no hosted
// zone. Returning nil falls through to REFUSED.
type Fallback func(src netip.Addr, q *dns.Message) *dns.Message

// Server is an authoritative DNS server over a set of zones.
type Server struct {
	mu    sync.RWMutex
	zones map[dns.Name]*zone.Zone

	// fallback handles queries outside all hosted zones (provider protective
	// behaviour); nil means plain REFUSED. Set while the server is being
	// built, read by every out-of-zone query: a published value, not a field
	// under mu.
	fallback atomic.Pointer[Fallback]

	queries atomic.Int64
}

// NewServer creates an empty authoritative server.
func NewServer() *Server {
	return &Server{zones: make(map[dns.Name]*zone.Zone)}
}

// SetFallback installs the out-of-zone query handler.
func (s *Server) SetFallback(f Fallback) {
	s.fallback.Store(&f)
}

// AddZone attaches a zone. A server can hold at most one zone per origin;
// this models real provider behaviour where a nameserver set is "exhausted"
// for a domain once it serves a zone of that name (the Amazon duplicate-zone
// mechanics in Appendix C).
func (s *Server) AddZone(z *zone.Zone) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.zones[z.Origin()]; ok {
		return fmt.Errorf("authority: zone %s already served", z.Origin().String())
	}
	s.zones[z.Origin()] = z
	return nil
}

// RemoveZone detaches the zone with the given origin.
func (s *Server) RemoveZone(origin dns.Name) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, origin)
}

// Zone returns the served zone with the given origin, if any.
func (s *Server) Zone(origin dns.Name) (*zone.Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[origin]
	return z, ok
}

// HasZone reports whether the server hosts a zone with the given origin.
func (s *Server) HasZone(origin dns.Name) bool {
	_, ok := s.Zone(origin)
	return ok
}

// ZoneCount returns the number of zones served.
func (s *Server) ZoneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.zones)
}

// Queries returns the number of queries handled.
func (s *Server) Queries() int64 { return s.queries.Load() }

// FindZone returns the zone that would serve a lookup for name (longest
// origin match) — exposed so provider-level wrappers can apply per-zone
// behaviours like geo-distributed answers.
func (s *Server) FindZone(name dns.Name) (*zone.Zone, bool) {
	z := s.findZone(name)
	return z, z != nil
}

// findZone returns the zone with the longest origin matching name. Walking
// the name's ancestor chain keeps the lookup O(labels) regardless of how
// many zones the server hosts — fleet-sync providers serve thousands.
func (s *Server) findZone(name dns.Name) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := name; ; n = n.Parent() {
		if z, ok := s.zones[n]; ok {
			return z
		}
		if n == dns.Root {
			return nil
		}
	}
}

// HandleQuery implements dnsio.Responder.
func (s *Server) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	s.queries.Add(1)
	if q.Header.OpCode != dns.OpQuery || len(q.Questions) != 1 {
		r := q.Reply()
		r.Header.RCode = dns.RCodeNotImp
		return r
	}
	question := q.Question()
	if question.Class != dns.ClassINET && question.Class != dns.ClassANY {
		r := q.Reply()
		r.Header.RCode = dns.RCodeRefused
		return r
	}

	z := s.findZone(question.Name)
	if z == nil {
		if fb := s.fallback.Load(); fb != nil && *fb != nil {
			if r := (*fb)(src, q); r != nil {
				return r
			}
		}
		r := q.Reply()
		r.Header.RCode = dns.RCodeRefused
		return r
	}
	return s.answerFromZone(z, q)
}

// AppendWire implements dnsio.WireResponder for the one shape a server
// answers without a message: a plain query (dns.ParseQuery), class IN or ANY,
// for a name no zone on the server covers, on a server with no fallback. It
// books the query and appends the REFUSED reply HandleQuery builds and dnsio
// packs for it — ID, opcode and RD copied, the question echoed lower-cased,
// no OPT — which no payload size truncates. Every other shape is declined
// with dst as it was and nothing booked.
func (s *Server) AppendWire(dst []byte, _ netip.Addr, raw []byte, _ string) ([]byte, bool) {
	if fb := s.fallback.Load(); fb != nil && *fb != nil {
		return dst, false
	}
	var name [255]byte
	q, ok := dns.ParseQuery(name[:0], raw)
	if !ok || (q.Class != dns.ClassINET && q.Class != dns.ClassANY) || s.covers(q.Name) {
		return dst, false
	}
	s.queries.Add(1)
	const qr = 1 << 15
	return q.AppendReply(dst, qr|q.Flags|uint16(dns.RCodeRefused)), true
}

// covers reports whether a zone on s covers name, a lower-cased name in
// presentation form: whether findZone would find one. The suffixes are tried
// from the root down, so a root or TLD server declines at its first or second
// lookup, and none of them is copied.
func (s *Server) covers(name []byte) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.zones[dns.Root]; ok {
		return true
	}
	for i := len(name) - 1; i >= 0; i-- {
		if i > 0 && name[i-1] != '.' {
			continue
		}
		if _, ok := s.zones[dns.Name(name[i:])]; ok {
			return true
		}
	}
	return false
}

func (s *Server) answerFromZone(z *zone.Zone, q *dns.Message) *dns.Message {
	r := q.Reply()
	question := q.Question()
	name, qtype := question.Name, question.Type

	for hop := 0; hop < maxCNAMEChain; hop++ {
		rrs, res := z.Lookup(name, qtype)
		switch res {
		case zone.Hit:
			r.Header.Authoritative = true
			r.Answers = append(r.Answers, rrs...)
			return r
		case zone.CNAMEHit:
			r.Header.Authoritative = true
			r.Answers = append(r.Answers, rrs...)
			target := rrs[0].Data.(*dns.CNAME).Target
			// Continue within this zone, or hop to a sibling zone we also
			// serve; otherwise the client must chase externally.
			if target.IsSubdomainOf(z.Origin()) {
				name = target
				continue
			}
			if other := s.findZone(target); other != nil {
				z = other
				name = target
				continue
			}
			return r
		case zone.Delegation:
			r.Authority = append(r.Authority, rrs...)
			s.attachGlue(r, rrs)
			return r
		case zone.NXDomain:
			r.Header.Authoritative = true
			r.Header.RCode = dns.RCodeNXDomain
			s.attachSOA(r, z)
			return r
		case zone.NoData:
			r.Header.Authoritative = true
			s.attachSOA(r, z)
			return r
		default: // OutOfZone mid-chase: answer what we have.
			return r
		}
	}
	r.Header.RCode = dns.RCodeServFail // CNAME loop
	return r
}

// attachSOA adds the zone's SOA to the authority section for negative
// responses, as caches require.
func (s *Server) attachSOA(r *dns.Message, z *zone.Zone) {
	if soa, ok := z.SOA(); ok {
		r.Authority = append(r.Authority, soa)
	}
}

// attachGlue adds A records for in-bailiwick NS targets to the additional
// section, searching every zone the server hosts. Glue often lives below the
// delegation cut, so this uses the raw RRset accessor rather than Lookup.
func (s *Server) attachGlue(r *dns.Message, nsSet []dns.RR) {
	for _, rr := range nsSet {
		ns, ok := rr.Data.(*dns.NS)
		if !ok {
			continue
		}
		if z := s.findZone(ns.Host); z != nil {
			if glue := z.RRset(ns.Host, dns.TypeA); len(glue) > 0 {
				r.Additional = append(r.Additional, glue...)
			}
		}
	}
}

var (
	_ dnsio.Responder     = (*Server)(nil)
	_ dnsio.WireResponder = (*Server)(nil)
)
