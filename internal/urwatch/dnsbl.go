package urwatch

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
)

// The DNSBL front-end serves the verdict feed as an authoritative DNS zone,
// so stock resolvers, mail filters, and firewalls consume it with the
// queries they already know how to send:
//
//	<reversed-ipv4>.urbl.<apex>   A/TXT — is this address a UR destination?
//	<domain>.urwatch.<apex>       A/TXT — does this domain carry URs?
//	gen.<apex>                    TXT   — current generation + counts
//
// Listed names answer A 127.0.0.<code> (DNSBL convention: codes start at 2)
// and TXT evidence strings; unlisted names get NXDOMAIN with the zone SOA.
// Every response is built from a single generation dereference, and every
// TXT answer's first string carries "gen=<seq>", so a client can verify it
// never observed a torn mix of two generations.
//
// Questions for the two lookup subtrees are the product, and most of them are
// about names that are not listed, so they have one renderer that works in
// bytes: appendAnswer writes the reply in wire form straight from the flat
// generation into a buffer its caller owns, allocating nothing. AppendWire
// feeds it from a datagram (dnsio tries it before unpacking a message) and
// HandleQueryVia feeds it from a decoded message and decodes what it wrote,
// so there is no second rendering of those answers to keep in step. Nothing
// is cached and nothing is precompiled when a generation is sealed: the SOA's
// expire field counts down with the generation's age, and a rendered answer
// costs less than a cache probe.

// DNSBL response codes, per category (127.0.0.<code>).
const (
	CodeMalicious  = 2
	CodeSuspicious = 3
	CodeProtective = 4
	CodeCorrect    = 5
)

// categoryCode maps a classification to its DNSBL answer code.
func categoryCode(c core.Category) int {
	switch c {
	case core.CategoryMalicious:
		return CodeMalicious
	case core.CategoryUnknown:
		return CodeSuspicious
	case core.CategoryProtective:
		return CodeProtective
	default:
		return CodeCorrect
	}
}

// maxTXTEvidence caps the per-answer evidence records so a heavily listed
// name cannot balloon responses past the TCP limit.
const maxTXTEvidence = 8

// ZoneResponder serves the feed zone. It implements dnsio.Responder, so it
// attaches to real UDP/TCP sockets via dnsio.Server or to the simulated
// fabric via dnsio.AttachSim.
type ZoneResponder struct {
	// Apex roots the feed zone, e.g. "feed.test" serves urbl.feed.test and
	// urwatch.feed.test subtrees.
	Apex dns.Name
	// Store supplies verdicts.
	Store *Store
	// Limiter, when non-nil, throttles per-client; throttled queries get
	// REFUSED (the DNSBL convention for "come back later").
	Limiter *RateLimiter
	// Cache is ignored: the DNS front-end renders every answer from the
	// current generation. The field is still declared only because the
	// benchmark harness sets it and a change that claims a gain may not edit
	// the harness; it goes with the next benchmark change.
	Cache *ResponseCache
	// TTL is the answer TTL (0 selects 30s — the feed changes per sweep, so
	// long TTLs would serve retired generations from resolver caches).
	TTL uint32
	// XferACL allowlists sources for AXFR/IXFR/NOTIFY. nil disables zone
	// transfers entirely — a transfer hands out the whole feed, so mirroring
	// is opt-in (see xfr.go).
	XferACL *ACL
	// ZoneACL, when non-nil, restricts ordinary DNSBL queries to matching
	// sources (transfer-allowlisted sources are implicitly admitted — a
	// mirror must be able to poll the SOA). nil leaves the zone open.
	ZoneACL *ACL
	// Metrics, when non-nil, receives per-query counters and latencies.
	Metrics *Metrics
}

func (z *ZoneResponder) ttl() uint32 {
	if z.TTL == 0 {
		return 30
	}
	return z.TTL
}

// Header flag bits (RFC 1035 §4.1.1) of the second header word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
)

// dnsblQuery is one question for a lookup subtree, in the form the renderer
// consumes: what AppendWire reads out of a datagram, or HandleQueryVia copies
// out of a decoded message.
type dnsblQuery struct {
	id uint16
	// flags are the reply header bits the query decides: QR, its opcode, RD.
	flags uint16
	qtype dns.Type
	class dns.Class
	// name is the lower-cased question name in presentation form; key is the
	// part of it left of ".urbl.<apex>" (zone ZoneUrbl) or ".urwatch.<apex>"
	// (zone ZoneUrwatch).
	name, key []byte
	zone      ZoneLabel
	// limit is the largest reply the requester takes over UDP; 0, on the
	// stream and HTTP transports, never truncates.
	limit int
}

// labelOctet maps an octet of a question label to its lower-case form, or to
// 0 when Name.Validate would reject it ('.' and '*' included: a dot inside a
// label does not survive the message codec's presentation form, and wildcard
// owners are left to the message path).
var labelOctet = func() (t [256]byte) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = byte(c), byte(c)
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c)
	}
	t['-'], t['_'] = '-', '_'
	return t
}()

// AppendWire implements dnsio.WireResponder: a plain question for a name in
// the urbl or urwatch subtree is answered by appending the packed reply to
// dst, byte for byte what unpacking the datagram, HandleQueryVia and packing
// the result (truncating on UDP) produce. Every other shape is declined —
// handled is false, dst comes back as it was, no limiter token is spent and
// nothing is counted — and dnsio takes the message path: NOTIFY and any other
// flag but RD, AXFR/IXFR, apex and gen. names and anything else outside the
// two subtrees, a class other than IN, QDCOUNT other than 1, records in the
// answer or authority section, an additional section that is not exactly one
// root-owned OPT, a compressed or otherwise unusual question name, trailing
// octets, and everything dns.Message.UnpackFrom would reject. The parser
// reads nothing past len(raw) and follows no compression pointer.
func (z *ZoneResponder) AppendWire(dst []byte, src netip.Addr, raw []byte, via string) (out []byte, handled bool) {
	var name [255]byte
	q, ok := z.parseWire(name[:0], raw, via)
	if !ok {
		return dst, false
	}
	return z.appendAnswer(dst, src, via, &q), true
}

// parseWire reads a datagram into the renderer's form, collecting the
// question name into name (capacity 255); ok is false for every shape the
// renderer does not answer.
func (z *ZoneResponder) parseWire(name, raw []byte, via string) (q dnsblQuery, ok bool) {
	if len(raw) < 12 {
		return q, false
	}
	flags := uint16(raw[2])<<8 | uint16(raw[3])
	if flags&^flagRD != 0 {
		return q, false
	}
	if raw[4] != 0 || raw[5] != 1 || raw[6]|raw[7]|raw[8]|raw[9]|raw[10] != 0 || raw[11] > 1 {
		return q, false
	}
	off := 12
	for {
		if off >= len(raw) {
			return q, false
		}
		n := int(raw[off])
		off++
		if n == 0 {
			break
		}
		if len(name) > 0 {
			name = append(name, '.')
		}
		// A length octet over 63 is a compression pointer or a reserved label
		// type; 253 octets is the longest name Validate lets through.
		if n > 63 || off+n > len(raw) || len(name)+n > 253 {
			return q, false
		}
		for _, c := range raw[off : off+n] {
			if c = labelOctet[c]; c == 0 {
				return q, false
			}
			name = append(name, c)
		}
		off += n
	}
	if off+4 > len(raw) {
		return q, false
	}
	q.qtype = dns.Type(uint16(raw[off])<<8 | uint16(raw[off+1]))
	q.class = dns.Class(uint16(raw[off+2])<<8 | uint16(raw[off+3]))
	off += 4
	if q.class != dns.ClassINET || q.qtype == dns.TypeAXFR || q.qtype == dns.TypeIXFR {
		return q, false
	}
	size := dns.MaxUDPSize
	if raw[11] == 1 {
		// EDNS0: root owner, TYPE OPT, and the requester's payload size in
		// the CLASS field; the TTL field and the options are not interpreted.
		if off+11 > len(raw) || raw[off] != 0 || raw[off+1] != 0 || raw[off+2] != byte(dns.TypeOPT) {
			return q, false
		}
		size = dnsio.ClampUDPSize(int(raw[off+3])<<8 | int(raw[off+4]))
		off += 11 + (int(raw[off+9])<<8 | int(raw[off+10]))
	}
	if off != len(raw) {
		return q, false
	}
	if q.zone, q.key = z.subtree(name); q.zone == ZoneOther {
		return q, false
	}
	q.id = uint16(raw[0])<<8 | uint16(raw[1])
	q.flags = flagQR | flags
	q.name = name
	if via == dnsio.ViaUDP {
		q.limit = size
	}
	return q, true
}

// subtree places a lower-cased name: properly under urbl.<apex> (ZoneUrbl) or
// urwatch.<apex> (ZoneUrwatch), with the labels left of that suffix as key,
// or neither (ZoneOther).
func (z *ZoneResponder) subtree(name []byte) (zone ZoneLabel, key []byte) {
	n := len(name) - len(z.Apex)
	if n < 2 || name[n-1] != '.' || string(name[n:]) != string(z.Apex) {
		return ZoneOther, nil
	}
	rest := name[:n-1]
	if k := len(rest) - len(".urbl"); k > 0 && string(rest[k:]) == ".urbl" {
		return ZoneUrbl, rest[:k]
	}
	if k := len(rest) - len(".urwatch"); k > 0 && string(rest[k:]) == ".urwatch" {
		return ZoneUrwatch, rest[:k]
	}
	return ZoneOther, nil
}

// reversedIPv4 reads a urbl key — four decimal labels, last octet first — as
// the address it names, accepting exactly what netip.ParseAddr accepts of the
// re-reversed labels: no leading zeros, no octet over 255.
func reversedIPv4(key []byte) (netip.Addr, bool) {
	var ip [4]byte
	field, digits, val := 0, 0, 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '.' {
			if digits == 0 || field > 3 {
				return netip.Addr{}, false
			}
			ip[3-field] = byte(val)
			field, digits, val = field+1, 0, 0
			continue
		}
		c := key[i]
		if c < '0' || c > '9' || (digits == 1 && val == 0) {
			return netip.Addr{}, false
		}
		if val = val*10 + int(c-'0'); val > 255 {
			return netip.Addr{}, false
		}
		digits++
	}
	return netip.AddrFrom4(ip), field == 4
}

// appendAnswer is the renderer: it appends the reply to q in wire form to dst
// and returns the extended slice. It owns everything a subtree question
// costs — the zone ACL, one limiter token, the generation lookup, the answer
// and the counters — whichever path the question arrived by.
//
// The bytes are the ones Message.AppendPack produces for the same reply, so
// the compression pointers are fixed by construction: the question name is
// the first name in the message, at offset 12; every answer's owner is that
// name and packs as a pointer to 12; the SOA's owner is the apex, which is a
// suffix of the question name and packs as a pointer into it; and ns.<apex>
// and hostmaster.<apex> occur nowhere earlier (a subtree name cannot end in
// them), so each packs as its first label and the apex pointer.
func (z *ZoneResponder) appendAnswer(dst []byte, src netip.Addr, via string, q *dnsblQuery) []byte {
	var t0 time.Time
	if z.Metrics != nil {
		t0 = time.Now()
	}
	// Room for the usual reply at once, for a caller that brought no buffer.
	dst = slices.Grow(dst, dns.MaxUDPSize)
	base := len(dst)
	dst = append(dst, byte(q.id>>8), byte(q.id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	for label := q.name; ; {
		n := 0
		for n < len(label) && label[n] != '.' {
			n++
		}
		dst = append(dst, byte(n))
		dst = append(dst, label[:n]...)
		if n == len(label) {
			break
		}
		label = label[n+1:]
	}
	dst = append(dst, 0, byte(q.qtype>>8), byte(q.qtype), byte(q.class>>8), byte(q.class))
	question := len(dst)

	flags, rcode := q.flags, dns.RCodeRefused
	answers, authority := 0, 0
	if z.admit(src) && z.Limiter.Allow(src) {
		flags |= flagAA
		rcode = dns.RCodeSuccess
		g := z.Store.Current()
		var vs VerdictSet
		if q.zone == ZoneUrwatch {
			vs = domainRun(g, q.key)
		} else if addr, ok := reversedIPv4(q.key); ok {
			vs = g.IP(addr)
		}
		switch {
		case vs.Len() == 0:
			rcode = dns.RCodeNXDomain
		case q.qtype == dns.TypeA:
			dst = appendOwner(dst, dns.TypeA, z.ttl())
			dst = append(dst, 0, 4, 127, 0, 0, byte(categoryCode(worstOf(vs))))
			answers = 1
		case q.qtype == dns.TypeTXT:
			dst, answers = z.appendEvidenceTXT(dst, g, vs)
		}
		if answers == 0 {
			// NXDOMAIN, or a listed name asked for a type the zone does not
			// serve (NoData): the negative answer carries the SOA.
			dst = z.appendSOA(dst, g, 12+len(q.name)-len(z.Apex))
			authority = 1
		}
	}

	switch size := len(dst) - base; {
	case size > dns.MaxMessageSize:
		// No transport frames this; the message codec refuses to pack it and
		// dnsio answers SERVFAIL in its place.
		dst, flags, rcode, answers, authority = dst[:question], q.flags, dns.RCodeServFail, 0, 0
	case q.limit > 0 && size > q.limit:
		dst, flags, answers, authority = dst[:question], flags|flagTC, 0, 0
	}
	flags |= uint16(rcode)
	dst[base+2], dst[base+3] = byte(flags>>8), byte(flags)
	dst[base+7], dst[base+9] = byte(answers), byte(authority)

	if z.Metrics != nil {
		z.Metrics.CountQuery(q.zone, rcode)
		z.Metrics.CountTransport(TransportLabelOf(via), rcode)
		z.Metrics.ObserveDNS(time.Since(t0))
	}
	return dst
}

// appendOwner opens a record owned by the question name: the pointer to
// offset 12, type, class IN and TTL. The caller appends RDLENGTH and RDATA.
func appendOwner(dst []byte, t dns.Type, ttl uint32) []byte {
	return append(dst, 0xC0, 12, byte(t>>8), byte(t), 0, byte(dns.ClassINET),
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl))
}

// appendEvidenceTXT appends a listed name's TXT answer — the "gen=" line, up
// to maxTXTEvidence evidence lines and a count of the rest, one record each —
// and returns how many records that was.
func (z *ZoneResponder) appendEvidenceTXT(dst []byte, g *Generation, vs VerdictSet) ([]byte, int) {
	ttl := z.ttl()
	dst, mark := beginTXT(dst, ttl)
	dst = append(dst, "gen="...)
	dst = strconv.AppendUint(dst, g.Seq, 10)
	dst = append(dst, " listed="...)
	dst = strconv.AppendInt(dst, int64(vs.Len()), 10)
	dst = append(dst, " worst="...)
	dst = append(dst, worstOf(vs).String()...)
	dst = endTXT(dst, mark)
	shown := min(vs.Len(), maxTXTEvidence)
	for i := 0; i < shown; i++ {
		dst, mark = beginTXT(dst, ttl)
		dst = endTXT(appendEvidence(dst, vs.At(i)), mark)
	}
	if vs.Len() == shown {
		return dst, 1 + shown
	}
	dst, mark = beginTXT(dst, ttl)
	return endTXT(appendMore(dst, vs.Len()-shown), mark), 2 + shown
}

// beginTXT opens a TXT record owned by the question name and returns the
// offset of its RDLENGTH; the caller appends the record's text and endTXT
// frames it.
func beginTXT(dst []byte, ttl uint32) ([]byte, int) {
	dst = appendOwner(dst, dns.TypeTXT, ttl)
	return append(dst, 0, 0, 0), len(dst) // RDLENGTH and the first string's length octet
}

// endTXT frames the text appended since beginTXT as character-strings of at
// most 255 octets inside the one record — the split dns.NewTXT makes — and
// fills in RDLENGTH.
func endTXT(dst []byte, mark int) []byte {
	text := mark + 3
	n := len(dst) - text
	first := n
	if n > 255 {
		// Open a one-octet gap for a length in front of every chunk after the
		// first, moving the last chunk first.
		first = 255
		gaps := (n - 1) / 255
		for i := 0; i < gaps; i++ {
			dst = append(dst, 0)
		}
		for c := gaps; c >= 1; c-- {
			from := text + c*255
			l := min(255, n-c*255)
			copy(dst[from+c:], dst[from:from+l])
			dst[from+c-1] = byte(l)
		}
	}
	dst[mark+2] = byte(first)
	rdlen := len(dst) - mark - 2
	dst[mark], dst[mark+1] = byte(rdlen>>8), byte(rdlen)
	return dst
}

// appendEvidence appends one verdict's TXT evidence line, as raw octets — the
// one rendering behind the query path's TXT answers and the zone transfer's
// (xfr.go), so a mirror's records match what a query would have been served.
func appendEvidence(dst []byte, v VerdictView) []byte {
	dst = append(dst, v.Category().String()...)
	dst = append(dst, ' ')
	dst = append(dst, v.Type().String()...)
	dst = append(dst, ' ')
	dst = append(dst, v.Domain()...)
	dst = append(dst, ". @"...) // the domain in display form, trailing dot and all
	dst = v.Server().AppendTo(dst)
	dst = append(dst, " ("...)
	dst = append(dst, v.Provider()...)
	dst = append(dst, ')')
	if v.ByIntel() || v.ByIDS() {
		dst = append(dst, " intel="...)
		dst = strconv.AppendBool(dst, v.ByIntel())
		dst = append(dst, " ids="...)
		dst = strconv.AppendBool(dst, v.ByIDS())
	}
	return dst
}

// appendMore appends the line that stands for the evidence past the cap.
func appendMore(dst []byte, n int) []byte {
	dst = append(dst, "and "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, " more"...)
}

// appendSOA appends the apex SOA, its owner and both RDATA names pointing at
// the apex inside the question name (message offset apexAt).
func (z *ZoneResponder) appendSOA(dst []byte, g *Generation, apexAt int) []byte {
	ttl := z.ttl()
	refresh, retry, expire := z.soaTimers(g)
	apexHi, apexLo := 0xC0|byte(apexAt>>8), byte(apexAt)
	dst = append(dst, apexHi, apexLo, 0, byte(dns.TypeSOA), 0, byte(dns.ClassINET),
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl), 0, 0)
	mark := len(dst)
	dst = append(dst, 2, 'n', 's', apexHi, apexLo)
	dst = append(dst, 10, 'h', 'o', 's', 't', 'm', 'a', 's', 't', 'e', 'r', apexHi, apexLo)
	for _, v := range [...]uint32{SerialForSeq(g.Seq), refresh, retry, expire, ttl} {
		dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	rdlen := len(dst) - mark
	dst[mark-2], dst[mark-1] = byte(rdlen>>8), byte(rdlen)
	return dst
}

// HandleQuery implements dnsio.Responder. Every answer is computed from one
// Store.Current() load.
func (z *ZoneResponder) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return z.HandleQueryVia(src, q, dnsio.ViaUDP)
}

// HandleQueryVia implements dnsio.ViaResponder: the serving logic is
// transport-blind, but the metrics count each answered query under its wire
// transport alongside the zone bucket. A question for a lookup subtree is
// handed to the renderer and the reply decoded from what it wrote; the rest
// of the zone — apex, gen., transfers over UDP, refusals — is built here.
func (z *ZoneResponder) HandleQueryVia(src netip.Addr, q *dns.Message, via string) *dns.Message {
	if q.Header.OpCode == dns.OpNotify {
		return z.handleNotify(src, q)
	}
	zone := ZoneOther
	if len(q.Questions) == 1 {
		qu := q.Questions[0]
		var buf [255]byte
		name := append(buf[:0], qu.Name...)
		var key []byte
		if zone, key = z.subtree(name); zone != ZoneOther && qu.Type != dns.TypeAXFR && qu.Type != dns.TypeIXFR {
			flags := uint16(flagQR) | uint16(q.Header.OpCode&0xF)<<11
			if q.Header.RecursionDesired {
				flags |= flagRD
			}
			// No limit: the message API's callers pack, and truncate, for
			// themselves.
			wire := z.appendAnswer(nil, src, via, &dnsblQuery{
				id: q.Header.ID, flags: flags, qtype: qu.Type, class: qu.Class,
				name: name, key: key, zone: zone,
			})
			r, err := dns.Unpack(wire)
			if err != nil {
				// Only a name no datagram can carry gets here (the message
				// codec would not have packed it either).
				r = q.Reply()
				r.Header.RCode = dns.RCodeServFail
			}
			return r
		}
	}
	var t0 time.Time
	if z.Metrics != nil {
		t0 = time.Now()
	}
	r, zone := z.answerMeta(src, q, zone)
	if z.Metrics != nil {
		z.Metrics.CountQuery(zone, r.Header.RCode)
		z.Metrics.CountTransport(TransportLabelOf(via), r.Header.RCode)
		z.Metrics.ObserveDNS(time.Since(t0))
	}
	return r
}

// answerMeta resolves a query the renderer does not take — malformed and
// out-of-zone questions, transfers over UDP, the apex, the generation marker,
// and in-zone names outside both lookup subtrees — to its reply and the
// subtree it is counted under. zone is where subtree placed the question name.
func (z *ZoneResponder) answerMeta(src netip.Addr, q *dns.Message, zone ZoneLabel) (*dns.Message, ZoneLabel) {
	r := q.Reply()
	if len(q.Questions) != 1 {
		r.Header.RCode = dns.RCodeFormat
		return r, ZoneOther
	}
	qu := q.Questions[0]
	if qu.Name != z.Apex && !qu.Name.IsSubdomainOf(z.Apex) {
		r.Header.RCode = dns.RCodeRefused
		return r, ZoneOther
	}
	gen := qu.Name == "gen."+z.Apex
	if gen || qu.Name == z.Apex {
		zone = ZoneMeta
	}
	if !z.admit(src) || !z.Limiter.Allow(src) {
		r.Header.RCode = dns.RCodeRefused
		return r, zone
	}
	r.Header.Authoritative = true

	g := z.Store.Current()
	switch {
	case qu.Type == dns.TypeAXFR || qu.Type == dns.TypeIXFR:
		// Transfers reaching the single-message path arrived over UDP (the
		// TCP path streams them — see HandleStream in xfr.go).
		return z.xfrAnswerUDP(r, g, qu, src), zone
	case qu.Name == z.Apex && qu.Type == dns.TypeSOA:
		r.Answers = append(r.Answers, z.soa(g))
		return r, zone
	case gen && qu.Type == dns.TypeTXT:
		r.Answers = append(r.Answers, z.genTXT(g))
		return r, zone
	case zone == ZoneMeta:
		// NoData.
	default:
		r.Header.RCode = dns.RCodeNXDomain
	}
	r.Authority = append(r.Authority, z.soa(g))
	return r, zone
}

// admit applies the zone ACL: open when unset, otherwise the source must be
// zone- or transfer-allowlisted.
func (z *ZoneResponder) admit(src netip.Addr) bool {
	return z.ZoneACL == nil || z.ZoneACL.Contains(src) || z.XferACL.Contains(src)
}

// xfrAnswerUDP answers a transfer question that arrived over UDP. AXFR is
// TCP-only (RFC 5936 §4.2) and gets REFUSED; an allowlisted IXFR gets the
// RFC 1995 §2 single-SOA reply steering the client to TCP.
func (z *ZoneResponder) xfrAnswerUDP(r *dns.Message, g *Generation, qu dns.Question, src netip.Addr) *dns.Message {
	if qu.Name != z.Apex || !z.XferACL.Contains(src) {
		z.Metrics.CountXfr(true)
		r.Header.RCode = dns.RCodeRefused
		return r
	}
	if qu.Type == dns.TypeIXFR {
		z.Metrics.CountXfr(false)
		r.Answers = append(r.Answers, z.soa(g))
		return r
	}
	z.Metrics.CountXfr(true)
	r.Header.RCode = dns.RCodeRefused
	return r
}

// handleNotify acknowledges a NOTIFY (RFC 1996) from a transfer-allowlisted
// source. The daemon is a primary, so an inbound NOTIFY carries no work; the
// ack exists so a pair of urwatchds configured as primary/mirror can point
// NOTIFY at each other without generating refusal noise.
func (z *ZoneResponder) handleNotify(src netip.Addr, q *dns.Message) *dns.Message {
	r := q.Reply()
	if !z.XferACL.Contains(src) {
		r.Header.RCode = dns.RCodeRefused
		return r
	}
	r.Header.Authoritative = true
	return r
}

// soaTimers derives the SOA's refresh, retry and expire fields.
//
// With no staleness policy installed the timers are the historical static
// "60 30 600". With a policy, the timers carry the staleness contract to
// standards-compliant secondaries: refresh follows the sweep interval (poll
// at the cadence generations actually appear), retry is half that, and
// expire is the *remaining* staleness budget — MaxStaleness minus the served
// generation's age — so a secondary that last refreshed now ages its copy
// out at the same wall-clock moment the primary itself would report stale.
// This is why no SOA is precomputed per generation: expire counts down as
// the generation ages.
func (z *ZoneResponder) soaTimers(g *Generation) (refresh, retry, expire uint32) {
	refresh, retry, expire = 60, 30, 600
	if p := z.Store.Policy(); p != nil {
		if p.SweepInterval > 0 {
			refresh = ceilSeconds(p.SweepInterval)
		}
		if retry = refresh / 2; retry < 1 {
			retry = 1
		}
		if p.MaxStaleness > 0 {
			remaining := time.Duration(0)
			if !g.SweptAt.IsZero() {
				if age := p.now().Sub(g.SweptAt); age < p.MaxStaleness {
					remaining = p.MaxStaleness - age
				}
			}
			if expire = ceilSeconds(remaining); expire < retry {
				// Floor at retry: a zero expire would make secondaries drop
				// the zone the moment they load it, defeating stale-on-error.
				expire = retry
			}
		}
	}
	return refresh, retry, expire
}

// soa synthesizes the zone SOA as a record, for the message path and the
// transfers. The serial is the generation sequence (truncated onto the
// RFC 1982 serial space — SerialForSeq), so "is my mirror current?" is one SOA
// query, and IXFR deltas key off it.
func (z *ZoneResponder) soa(g *Generation) dns.RR {
	refresh, retry, expire := z.soaTimers(g)
	return dns.RR{Name: z.Apex, Class: dns.ClassINET, TTL: z.ttl(), Data: &dns.SOA{
		MName: "ns." + z.Apex, RName: "hostmaster." + z.Apex,
		Serial: SerialForSeq(g.Seq), Refresh: refresh, Retry: retry, Expire: expire, Minimum: z.ttl(),
	}}
}

// ceilSeconds converts a duration to whole seconds, rounding up, min 1.
func ceilSeconds(d time.Duration) uint32 {
	if d <= 0 {
		return 1
	}
	s := d / time.Second
	if d%time.Second != 0 {
		s++
	}
	return uint32(s)
}

// genTXT renders the generation marker: TXT gen.<apex>.
func (z *ZoneResponder) genTXT(g *Generation) dns.RR {
	b := append(make([]byte, 0, 96), "gen="...)
	b = strconv.AppendUint(b, g.Seq, 10)
	for _, f := range [...]struct {
		label string
		n     int
	}{
		{" total=", g.Total()},
		{" malicious=", g.Count(core.CategoryMalicious)},
		{" suspicious=", g.Count(core.CategoryUnknown)},
		{" protective=", g.Count(core.CategoryProtective)},
		{" correct=", g.Count(core.CategoryCorrect)},
	} {
		b = append(b, f.label...)
		b = strconv.AppendInt(b, int64(f.n), 10)
	}
	return dns.RR{Name: "gen." + z.Apex, Class: dns.ClassINET, TTL: z.ttl(), Data: dns.NewTXT(string(b))}
}

// ReverseIPName builds the urbl query name for an IPv4 address under apex —
// the client-side helper mirrored by reversedIPv4.
func ReverseIPName(addr netip.Addr, apex dns.Name) (dns.Name, bool) {
	if !addr.Is4() {
		return "", false
	}
	b := addr.As4()
	// string(apex), not %s on the Name: Name.String() appends the display
	// trailing dot, which would make the result non-canonical.
	return dns.Name(fmt.Sprintf("%d.%d.%d.%d.urbl.%s", b[3], b[2], b[1], b[0], string(apex))), true
}

// DomainName builds the urwatch query name for a domain under apex.
func DomainName(domain, apex dns.Name) dns.Name {
	return domain + ".urwatch." + apex
}
