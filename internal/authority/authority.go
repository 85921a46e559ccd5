// Package authority implements the authoritative nameserver engine used by
// every simulated hosting-provider nameserver, TLD server, and the root. It
// turns zone.Zone lookups into complete DNS responses: authoritative answers
// with CNAME chasing, referrals with glue, NXDOMAIN/NoData with SOA, and a
// pluggable fallback for queries about domains the server does not host —
// which is exactly where hosting providers' "protective records" live.
//
// A plain query is answered in wire form (AppendWire), with no query decoded,
// unless only a fallback can answer it. Most of what a hosting nameserver is
// asked in a sweep is about names it hosts no zone for, and a server without
// a fallback refuses all of them with no reply built. A hosted name's answer
// is packed once per zone and question: an answer that comes from its zone
// alone is memoized in the zone (zone.Zone.Memoize), shared by every server
// of that zone, and a repeated question is answered from those bytes.
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

// zoneFor returns the zone of s with the longest origin matching name, a
// name in presentation form — a dns.Name, or the lower-cased bytes
// dns.ParseQuery leaves, looked up without a copy — and nil when no zone
// covers it. Trying the name's suffixes keeps the lookup O(labels) regardless
// of how many zones the server hosts — fleet-sync providers serve thousands.
func zoneFor[S dns.Name | []byte](s *Server, name S) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < len(name); i++ {
		if i > 0 && name[i-1] != '.' {
			continue
		}
		if z, ok := s.zones[dns.Name(name[i:])]; ok {
			return z
		}
	}
	return s.zones[dns.Root]
}

// Edges picks, for the client at src, the address the A answers of a hosted
// zone are rewritten to — a CDN front's regional edge — and returns the zero
// Addr when z's answers are served as the zone holds them.
type Edges func(z *zone.Zone, src netip.Addr) netip.Addr

// Regional is a server whose hosted A answers are rewritten to the edge its
// Edges picks for the client that asked (Server.WithEdges).
type Regional struct {
	s     *Server
	edges Edges
}

// WithEdges returns s as a responder that rewrites hosted A answers with
// edges. s itself keeps answering as its zones hold.
func (s *Server) WithEdges(edges Edges) *Regional {
	return &Regional{s: s, edges: edges}
}

// HandleQuery implements dnsio.Responder.
func (r *Regional) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return r.s.handle(src, q, r.edges)
}

// AppendWire implements dnsio.WireResponder.
func (r *Regional) AppendWire(dst []byte, src netip.Addr, raw []byte, via string) ([]byte, bool) {
	return r.s.appendWire(dst, src, raw, via, r.edges)
}

// HandleQuery implements dnsio.Responder.
func (s *Server) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return s.handle(src, q, nil)
}

func (s *Server) handle(src netip.Addr, q *dns.Message, edges Edges) *dns.Message {
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

	z := zoneFor(s, question.Name)
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
	r := q.Reply()
	s.answerFromZone(z, r)
	if edges != nil && question.Type == dns.TypeA {
		if edge := edges(z, src); edge.IsValid() {
			rewriteToEdge(r, edge)
		}
	}
	return r
}

// AppendWire implements dnsio.WireResponder for a plain query
// (dns.ParseQuery), class IN or ANY, that the server answers from a zone or,
// having no fallback, refuses. It books the query and appends the reply
// HandleQuery builds and dnsio packs for it, truncated to the requester's
// payload size over UDP. A refusal is the question echoed with REFUSED,
// which no payload size truncates. A hosted answer that came from its zone
// alone — a hit, NXDOMAIN or NoData, after any CNAME chain inside the zone —
// is memoized in the zone under its question and edge, and a repeated
// question gets those bytes with its own ID and RD; one too long for the UDP
// payload size is declined, and the message path truncates it. Every other
// shape, and an unhosted name on a server with a fallback, is declined with
// dst as it was and nothing booked.
func (s *Server) AppendWire(dst []byte, src netip.Addr, raw []byte, via string) ([]byte, bool) {
	return s.appendWire(dst, src, raw, via, nil)
}

func (s *Server) appendWire(dst []byte, src netip.Addr, raw []byte, via string, edges Edges) ([]byte, bool) {
	// The name, and after it the rest of the memo key.
	var buf [255 + 4 + 16]byte
	q, ok := dns.ParseQuery(buf[:0], raw)
	if !ok || (q.Class != dns.ClassINET && q.Class != dns.ClassANY) {
		return dst, false
	}
	const qr = 1 << 15
	z := zoneFor(s, q.Name)
	if z == nil {
		if fb := s.fallback.Load(); fb != nil && *fb != nil {
			return dst, false
		}
		s.queries.Add(1)
		return q.AppendReply(dst, qr|q.Flags|uint16(dns.RCodeRefused)), true
	}
	var edge netip.Addr
	if edges != nil && q.Type == dns.TypeA {
		edge = edges(z, src)
	}
	// The memo key: the question as it is echoed, and the edge.
	e16 := edge.As16()
	key := append(append(q.Name, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class)), e16[:]...)
	maxSize := 0 // stream- and HTTP-framed replies go whole
	if via == dnsio.ViaUDP {
		maxSize = dnsio.ClampUDPSize(q.UDPSize)
	}
	if memo, ok := z.Memoized(key); ok {
		if maxSize > 0 && len(memo) > maxSize {
			return dst, false
		}
		s.queries.Add(1)
		out := append(dst, memo...)
		reply := out[len(dst):]
		reply[0], reply[1] = byte(q.ID>>8), byte(q.ID)
		reply[2] = reply[2]&^1 | byte(q.Flags>>8)&1 // RD
		return out, true
	}

	s.queries.Add(1)
	gen := z.Generation()
	r := &dns.Message{
		Header:    dns.Header{ID: q.ID, Response: true, RecursionDesired: q.Flags&(1<<8) != 0},
		Questions: []dns.Question{{Name: dns.Name(q.Name), Type: q.Type, Class: q.Class}},
	}
	own := s.answerFromZone(z, r)
	if edge.IsValid() {
		rewriteToEdge(r, edge)
	}
	out, err := r.AppendPack(dst)
	if err == nil && own {
		z.Memoize(gen, key, out[len(dst):])
	}
	if err == nil && maxSize > 0 && len(out)-len(dst) > maxSize {
		out, err = r.AppendPackTruncated(dst, maxSize)
	}
	if err != nil {
		out = q.AppendReply(dst, qr|q.Flags|uint16(dns.RCodeServFail))
	}
	return out, true
}

// answerFromZone answers r's question from z into r, and reports whether the
// answer came from z alone: a hit, NXDOMAIN or NoData, after any CNAME chain
// that stayed inside z. A referral (its glue is searched for in every zone),
// a chain that hopped to a sibling zone or left every zone of the server, and
// a CNAME loop depend on more than z.
func (s *Server) answerFromZone(z *zone.Zone, r *dns.Message) (own bool) {
	name, qtype := r.Questions[0].Name, r.Questions[0].Type
	own = true
	for hop := 0; hop < maxCNAMEChain; hop++ {
		rrs, res := z.Lookup(name, qtype)
		switch res {
		case zone.Hit:
			r.Header.Authoritative = true
			r.Answers = append(r.Answers, rrs...)
			return own
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
			if other := zoneFor(s, target); other != nil {
				z, name, own = other, target, false
				continue
			}
			return false
		case zone.Delegation:
			r.Authority = append(r.Authority, rrs...)
			s.attachGlue(r, rrs)
			return false
		case zone.NXDomain:
			r.Header.Authoritative = true
			r.Header.RCode = dns.RCodeNXDomain
			s.attachSOA(r, z)
			return own
		case zone.NoData:
			r.Header.Authoritative = true
			s.attachSOA(r, z)
			return own
		default: // OutOfZone mid-chase: answer what we have.
			return false
		}
	}
	r.Header.RCode = dns.RCodeServFail // CNAME loop
	return false
}

// rewriteToEdge replaces r's A answers with one A record for edge, keeping any
// CNAME chain intact — what a CDN front does.
func rewriteToEdge(r *dns.Message, edge netip.Addr) {
	if len(r.Answers) == 0 {
		return
	}
	var rewritten []dns.RR
	replaced := false
	for _, rr := range r.Answers {
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
	r.Answers = rewritten
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
		if z := zoneFor(s, ns.Host); z != nil {
			if glue := z.RRset(ns.Host, dns.TypeA); len(glue) > 0 {
				r.Additional = append(r.Additional, glue...)
			}
		}
	}
}

var (
	_ dnsio.Responder     = (*Server)(nil)
	_ dnsio.WireResponder = (*Server)(nil)
	_ dnsio.Responder     = (*Regional)(nil)
	_ dnsio.WireResponder = (*Regional)(nil)
)
