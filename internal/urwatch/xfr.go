package urwatch

import (
	"net/netip"
	"strings"

	"repro/internal/dns"
)

// Zone mirroring. A DNSBL consumer that queries per-lookup sees one name at a
// time; a mirror wants the whole feed, kept current. This file serves the
// verdict feed as a transferable zone: AXFR (RFC 5936) streams the full zone,
// IXFR (RFC 1995) streams only what changed between two generations, and the
// SOA serial is the generation sequence number — so "is my mirror current?"
// is a single SOA query, and an incremental delta is a deterministic diff of
// two retained generations.
//
// Everything streams straight off the flat generation arrays: the zone's
// rendered order IS the record array's (domain, server, type, rdata) order
// followed by the IP index's address order, so rendering walks contiguous
// runs and never materializes a map or a sorted copy. That also makes the
// rendering reproducible — two walks of the same generation produce the same
// RR sequence — which is what lets IXFR deltas be computed by merge-diffing
// two generations' block streams.
//
// Access control: transfers hand out the entire feed in one exchange, so
// they are gated by an explicit source-IP allowlist (ZoneResponder.XferACL).
// A nil allowlist disables transfers entirely; denied clients get REFUSED.

// xfrMsgBudget bounds the estimated wire size of one transfer message, well
// under the 64 KiB TCP frame limit so the estimate never needs to be exact.
const xfrMsgBudget = 16000

// zoneBlock is one owner name's rendered RRset in the transferable zone:
// either a urwatch.<apex> domain block or a urbl.<apex> reversed-IP block.
type zoneBlock struct {
	sect int // 0 = urwatch domain subtree, 1 = urbl IP subtree
	dom  dns.Name
	addr netip.Addr
	name dns.Name
	rrs  []dns.RR
}

// blockCmp orders blocks in zone-render order: domain subtree first (record
// array order), then IP subtree (IP index order).
func blockCmp(a, b *zoneBlock) int {
	if a.sect != b.sect {
		return a.sect - b.sect
	}
	if a.sect == 0 {
		return strings.Compare(string(a.dom), string(b.dom))
	}
	return a.addr.Compare(b.addr)
}

// sameRRs reports whether two blocks render identical RRsets.
func sameRRs(a, b *zoneBlock) bool {
	if len(a.rrs) != len(b.rrs) {
		return false
	}
	for i := range a.rrs {
		if a.rrs[i].String() != b.rrs[i].String() {
			return false
		}
	}
	return true
}

// zoneCursor walks one generation's zone blocks in render order without
// materializing the zone: first the record array's domain runs, then the IP
// index's per-address runs (IPv6 corresponding addresses have no reversed-v4
// owner name and are skipped, exactly as the query path skips them).
type zoneCursor struct {
	z  *ZoneResponder
	g  *Generation
	ri int
	ii int
}

// next returns the next block, or nil at end of zone.
func (c *zoneCursor) next() *zoneBlock {
	for c.ri < len(c.g.recs) {
		lo := c.ri
		d := c.g.domainOf(lo)
		hi := lo + 1
		for hi < len(c.g.recs) && c.g.domainOf(hi) == d {
			hi++
		}
		c.ri = hi
		name := DomainName(d, c.z.Apex)
		if name.Validate() != nil {
			// A swept domain this long has no owner name under urwatch.<apex>
			// that fits in 255 octets, so the zone cannot hold its block; its
			// verdicts stay reachable by address under urbl.<apex>.
			continue
		}
		return &zoneBlock{
			sect: 0, dom: d, name: name,
			rrs: c.z.blockRRs(name, VerdictSet{g: c.g, lo: lo, hi: hi}),
		}
	}
	for c.ii < len(c.g.ipIdx) {
		lo := c.ii
		a := c.g.ipIdx[lo].addr
		hi := lo + 1
		for hi < len(c.g.ipIdx) && c.g.ipIdx[hi].addr == a {
			hi++
		}
		c.ii = hi
		name, ok := ReverseIPName(a, c.z.Apex)
		if !ok {
			continue
		}
		return &zoneBlock{
			sect: 1, addr: a, name: name,
			rrs: c.z.blockRRs(name, VerdictSet{g: c.g, lo: lo, hi: hi, byIP: true}),
		}
	}
	return nil
}

// blockRRs renders one owner name's RRset: the DNSBL A answer plus capped TXT
// evidence — the same records the query path serves, minus the per-response
// "gen=" header TXT, which is deliberately excluded so a name whose verdicts
// did not change renders identically across generations and drops out of
// IXFR deltas.
func (z *ZoneResponder) blockRRs(name dns.Name, vs VerdictSet) []dns.RR {
	n := vs.Len()
	if n > maxTXTEvidence {
		n = maxTXTEvidence + 1
	}
	rrs := make([]dns.RR, 0, 1+n)
	rr := dns.RR{Name: name, Class: dns.ClassINET, TTL: answerTTL}
	rr.Data = &dns.A{Addr: netip.AddrFrom4([4]byte{127, 0, 0, byte(categoryCode(worstOf(vs)))})}
	rrs = append(rrs, rr)
	for i := 0; i < vs.Len(); i++ {
		if i >= maxTXTEvidence {
			rr.Data = dns.NewTXT(string(appendMore(nil, vs.Len()-maxTXTEvidence)))
			rrs = append(rrs, rr)
			break
		}
		rr.Data = dns.NewTXT(string(appendEvidence(nil, vs.At(i))))
		rrs = append(rrs, rr)
	}
	return rrs
}

// nsRR renders the zone's apex NS record.
func (z *ZoneResponder) nsRR() dns.RR {
	return dns.RR{Name: z.Apex, Class: dns.ClassINET, TTL: answerTTL, Data: &dns.NS{Host: "ns." + z.Apex}}
}

// zoneDelta merge-diffs two generations' block streams into the RRs removed
// by old→new and the RRs added. Granularity is the owner-name block: a block
// whose rendering changed is deleted in full and re-added in full, which is
// valid IXFR and keeps the delta computation a single linear merge.
func (z *ZoneResponder) zoneDelta(old, next *Generation) (dels, adds []dns.RR) {
	if old.sharesTables(next) {
		return nil, nil
	}
	co := &zoneCursor{z: z, g: old}
	cn := &zoneCursor{z: z, g: next}
	bo, bn := co.next(), cn.next()
	for bo != nil || bn != nil {
		switch {
		case bn == nil:
			dels = append(dels, bo.rrs...)
			bo = co.next()
		case bo == nil:
			adds = append(adds, bn.rrs...)
			bn = cn.next()
		default:
			switch c := blockCmp(bo, bn); {
			case c < 0:
				dels = append(dels, bo.rrs...)
				bo = co.next()
			case c > 0:
				adds = append(adds, bn.rrs...)
				bn = cn.next()
			default:
				if !sameRRs(bo, bn) {
					dels = append(dels, bo.rrs...)
					adds = append(adds, bn.rrs...)
				}
				bo, bn = co.next(), cn.next()
			}
		}
	}
	return dels, adds
}

// xfrWriter chunks a transfer's RR stream into DNS messages under the wire
// budget and sends each as it fills. Errors latch: after a failed send every
// further add is a no-op and close returns the error, so a broken connection
// aborts the stream instead of silently truncating the zone.
type xfrWriter struct {
	q    *dns.Message
	send func(*dns.Message) error
	cur  *dns.Message
	size int
	err  error
}

func newXfrWriter(q *dns.Message, send func(*dns.Message) error) *xfrWriter {
	return &xfrWriter{q: q, send: send}
}

// rrEstimate over-approximates one record's wire size (owner name + fixed
// header + presentation-length rdata, uncompressed).
func rrEstimate(rr dns.RR) int {
	return len(rr.Name) + 2 + 10 + len(rr.Data.String()) + 8
}

func (w *xfrWriter) begin() *dns.Message {
	r := w.q.Reply()
	r.Header.Authoritative = true
	return r
}

func (w *xfrWriter) add(rr dns.RR) {
	if w.err != nil {
		return
	}
	if w.cur == nil {
		w.cur = w.begin()
		w.size = 0
	}
	est := rrEstimate(rr)
	if len(w.cur.Answers) > 0 && w.size+est > xfrMsgBudget {
		w.flushMsg()
		if w.err != nil {
			return
		}
		w.cur = w.begin()
		w.size = 0
	}
	w.cur.Answers = append(w.cur.Answers, rr)
	w.size += est
}

func (w *xfrWriter) flushMsg() {
	if w.cur != nil && w.err == nil {
		w.err = w.send(w.cur)
	}
	w.cur = nil
}

func (w *xfrWriter) close() error {
	w.flushMsg()
	return w.err
}

// ixfrRequestSerial extracts the client's current serial from an IXFR
// request's authority SOA (RFC 1995 §3).
func ixfrRequestSerial(q *dns.Message) (uint32, bool) {
	for _, rr := range q.Authority {
		if soa, ok := rr.Data.(*dns.SOA); ok {
			return soa.Serial, true
		}
	}
	return 0, false
}

// HandleStream implements dnsio.StreamResponder: it owns AXFR and IXFR
// questions on the TCP path and declines everything else to the ordinary
// single-message handler. Both transfer types are gated by the transfer
// allowlist and the rate limiter; a denied client gets a single REFUSED
// message, never a partial zone.
func (z *ZoneResponder) HandleStream(src netip.Addr, q *dns.Message, send func(*dns.Message) error) (bool, error) {
	if q.Header.OpCode != dns.OpQuery || len(q.Questions) != 1 {
		return false, nil
	}
	qu := q.Questions[0]
	if qu.Type != dns.TypeAXFR && qu.Type != dns.TypeIXFR {
		return false, nil
	}
	refuse := func() error {
		r := q.Reply()
		r.Header.RCode = dns.RCodeRefused
		return send(r)
	}
	if qu.Name != z.Apex || (qu.Class != dns.ClassINET && qu.Class != dns.ClassANY) {
		return true, refuse()
	}
	if !z.XferACL.Contains(src) {
		z.Metrics.CountXfr(true)
		return true, refuse()
	}
	if !z.Limiter.Allow(src) {
		z.Metrics.CountXfr(true)
		return true, refuse()
	}
	z.Metrics.CountXfr(false)
	g := z.Store.Current()
	if qu.Type == dns.TypeAXFR {
		return true, z.streamFull(q, g, send)
	}
	serial, haveSerial := ixfrRequestSerial(q)
	cur := SerialForSeq(g.Seq)
	if haveSerial && serial == cur {
		// Up to date: a single current SOA (RFC 1995 §2).
		r := q.Reply()
		r.Header.Authoritative = true
		r.Answers = append(r.Answers, z.soa(g))
		return true, send(r)
	}
	if haveSerial && SerialLess(serial, cur) {
		if chain, ok := z.Store.ChainFromSerial(serial); ok && len(chain) >= 2 {
			return true, z.streamIncremental(q, chain, send)
		}
	}
	// Serial outside the retention window (or ahead of us after a primary
	// restart): RFC 1995 §4 fallback — answer with a full AXFR-style body.
	return true, z.streamFull(q, g, send)
}

// streamFull sends an AXFR-style body: SOA, apex NS, every zone block, SOA.
func (z *ZoneResponder) streamFull(q *dns.Message, g *Generation, send func(*dns.Message) error) error {
	w := newXfrWriter(q, send)
	soa := z.soa(g)
	w.add(soa)
	w.add(z.nsRR())
	c := &zoneCursor{z: z, g: g}
	for b := c.next(); b != nil; b = c.next() {
		for _, rr := range b.rrs {
			w.add(rr)
		}
	}
	w.add(soa)
	return w.close()
}

// streamIncremental sends an RFC 1995 incremental body over a retained
// generation chain: SOA(cur), then per step SOA(old) + deletions + SOA(new)
// + additions, then the trailing SOA(cur).
func (z *ZoneResponder) streamIncremental(q *dns.Message, chain []*Generation, send func(*dns.Message) error) error {
	w := newXfrWriter(q, send)
	head := z.soa(chain[len(chain)-1])
	w.add(head)
	for i := 0; i+1 < len(chain); i++ {
		old, next := chain[i], chain[i+1]
		dels, adds := z.zoneDelta(old, next)
		w.add(z.soa(old))
		for _, rr := range dels {
			w.add(rr)
		}
		w.add(z.soa(next))
		for _, rr := range adds {
			w.add(rr)
		}
	}
	w.add(head)
	return w.close()
}
