// Derived once per answer. The paper counts the same data on two nameservers
// as two URs (§5.1), so a sweep sees each distinct answer, and each distinct
// rdata, many times over: at `small` 29,092 TXT URs carry 759 distinct rdata
// and 33,492 A URs carry 779. What the collector and the determiner derive
// from them — a decode, the rdata's presentation form, its TXT class,
// corresponding IPs, IPDB row and web probe — is a pure function of the
// bytes, so two worker-local memos let each worker derive it once:
//
//   - answerMemo, one per sweep worker, maps an answer's wire bytes after
//     the 2-octet ID to what the worker derived from it: the (rdata, TTL)
//     list of a nameserver answer's URs, "folded" for an open resolver's
//     answer, whose profile adds are set inserts that a repeat cannot
//     change, or "empty" for an answer the collector reads nothing from
//     (emptyAnswer). Empty answers are most of a sweep — a nameserver
//     refuses every target it hosts no zone for, with the same bytes for
//     every such server — and an empty one a worker has seen before is
//     journaled as empty without being decoded. The memo is consulted
//     before a replayed answer is decoded, and a live one never is when the
//     client finds it there: the worker hands the memo to its scratch
//     (sweepWorker.Known), and the client accepts a repeated answer
//     undecoded.
//   - the rdata memo, detMemo.rdata, one per determine worker, maps (type,
//     rdata) to the facts enrichOne and correctA read off it, among them the
//     one Enrichment record every UR of that rdata points at.
//
// Beside its answer memo a sweep worker keeps an internTable, which collapses
// the rdata of the URs it derives to one instance per distinct string.
//
// All three live for one sweep pool or one Pipeline.Run, are written only by
// the worker that owns them — a probe writes nothing shared (DESIGN §6) — and
// are capped: past the cap a table takes no more entries and the worker
// derives what it has not seen exactly as it would without one.
package core

import (
	"net/netip"
	"slices"

	"repro/internal/dns"
)

// The memo caps. At `small` a sweep worker's answer memo peaks near 4,500
// entries and 317 KB of keys, empty answers included; at `paper` every
// worker's reaches the cap. A key past answerMemoMaxKey is a large answer
// that repeats rarely, and an rdata past internMaxLen (a long TXT blob)
// almost certainly unique. Variables only so a test can reach the caps with
// a small world.
var (
	answerMemoCap    = 1 << 14
	answerMemoMaxKey = 512
	rdataMemoCap     = 1 << 14
	internCap        = 1 << 16
	internMaxLen     = 256
)

// derivedAnswer is what a sweep worker derived from one answer. It applies
// only to the probe kind, name and type it was derived for: a response need
// not carry its question, so equal bytes can answer two different probes.
type derivedAnswer struct {
	kind sweepKind
	name dns.Name
	qt   dns.Type
	// recs are a nameserver answer's URs, in answer order; nil for an open
	// resolver's answer, which folds into the correct database, and for an
	// empty one.
	recs []derivedRec
	// empty marks an answer the collector reads nothing from, which the
	// journal keeps as its position alone.
	empty bool
}

// emptyAnswer reports whether the collector reads nothing from resp: it is
// not NOERROR, or it has no answer records.
func emptyAnswer(resp *dns.Message) bool {
	return resp.Header.RCode != dns.RCodeSuccess || len(resp.Answers) == 0
}

// derivedRec is the part of one UR its answer fixes.
type derivedRec struct {
	rdata string // interned
	ttl   uint32
}

// appendURs appends the answer's URs as served by ns.
func (d *derivedAnswer) appendURs(out []*UR, ns *NameserverInfo) []*UR {
	for _, r := range d.recs {
		out = append(out, &UR{Server: ns, Domain: d.name, Type: d.qt, RData: r.rdata, TTL: r.ttl})
	}
	return out
}

// answerMemo is a sweep worker's map from answer bytes to their derivation.
type answerMemo struct {
	m map[string]*derivedAnswer
	// slab is where entries and their recs are carved from, a chunk at a
	// time, so a new entry costs its key and nothing else.
	slab    []derivedAnswer
	recSlab []derivedRec
}

// memoChunk is how many entries, or recs, one slab allocation holds.
const memoChunk = 256

// get returns what the worker derived from wire for this probe, or nil. The
// lookup keys the map with the bytes in place, without copying them.
func (am *answerMemo) get(wire []byte, kind sweepKind, name dns.Name, qt dns.Type) *derivedAnswer {
	if len(wire) < 2 {
		return nil
	}
	d := am.m[string(wire[2:])]
	if d == nil || d.kind != kind || d.name != name || d.qt != qt {
		return nil
	}
	return d
}

// put remembers what the worker derived from resp, the decode of wire, for
// the probe (kind, name, qt); an empty answer is remembered as empty. The key
// is a copy — wire is lent and is overwritten by the worker's next probe.
func (am *answerMemo) put(wire []byte, resp *dns.Message, kind sweepKind, name dns.Name, qt dns.Type, urs []*UR) {
	if len(wire) < 2 || len(wire)-2 > answerMemoMaxKey || len(am.m) >= answerMemoCap {
		return
	}
	if len(am.slab) == cap(am.slab) {
		am.slab = make([]derivedAnswer, 0, memoChunk)
	}
	am.slab = append(am.slab, derivedAnswer{kind: kind, name: name, qt: qt, empty: emptyAnswer(resp)})
	d := &am.slab[len(am.slab)-1]
	if len(urs) > 0 {
		if cap(am.recSlab)-len(am.recSlab) < len(urs) {
			am.recSlab = make([]derivedRec, 0, max(memoChunk, len(urs)))
		}
		n := len(am.recSlab)
		for _, u := range urs {
			am.recSlab = append(am.recSlab, derivedRec{rdata: u.RData, ttl: u.TTL})
		}
		d.recs = am.recSlab[n:len(am.recSlab):len(am.recSlab)]
	}
	if am.m == nil {
		am.m = make(map[string]*derivedAnswer)
	}
	am.m[string(wire[2:])] = d
}

// internTable is a sweep worker's string table: the canonical instance of
// each distinct rdata its URs carry.
type internTable struct {
	m map[string]string
}

// intern returns the canonical instance of s, registering s when the table
// has room; the empty string, one past internMaxLen and, in a full table, a
// new one come back as passed.
func (t *internTable) intern(s string) string {
	if len(s) == 0 || len(s) > internMaxLen {
		return s
	}
	if v, ok := t.m[s]; ok {
		return v
	}
	if len(t.m) < internCap {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// rdataKey names one distinct rdata of one record type.
type rdataKey struct {
	t     dns.Type
	rdata string
}

// rdataFacts is everything enrichment and the A-record exclusion read off
// one (type, rdata).
type rdataFacts struct {
	// addr is an A record's address; invalid when the rdata does not parse.
	addr netip.Addr
	// ips are the corresponding IPs, clipped: every UR with this rdata shares
	// them, and one that appends to its own — attachTXTCorrespondence does —
	// must reallocate rather than write into its neighbours'.
	ips []netip.Addr
	// enr is the enrichment record every UR with this rdata points at; nil
	// for a type that has none.
	enr *Enrichment
}

// rdataFacts derives the facts of (t, rdata), through the determine worker's
// memo m. Past rdataMemoCap they are derived afresh, so every UR of an rdata
// the memo has no room for gets a record of its own.
func (c *Collector) rdataFacts(m *detMemo, t dns.Type, rdata string) rdataFacts {
	k := rdataKey{t, rdata}
	if f, ok := m.rdata[k]; ok {
		return f
	}
	var f rdataFacts
	switch t {
	case dns.TypeA:
		addr, err := netip.ParseAddr(rdata)
		if err != nil {
			break
		}
		f.addr = addr
		f.ips = []netip.Addr{addr}
		f.enr = &Enrichment{}
		if info, ok := c.cfg.IPDB.Lookup(addr); ok {
			f.enr.ASN, f.enr.ASName, f.enr.Country = info.ASN, info.ASName, info.Country
		}
		if c.probeFn != nil {
			f.enr.HTTP = c.probe(addr)
		}
	case dns.TypeTXT:
		f.enr = &Enrichment{TXTClass: ClassifyTXT(rdata)}
		f.ips = slices.Clip(extractIPs(rdata))
	default:
		// MX and other extension types: rdata names a host rather than an
		// address; any embedded literal IPs still count as correspondence
		// evidence.
		f.ips = slices.Clip(extractIPs(rdata))
	}
	if len(m.rdata) < rdataMemoCap {
		m.rdata[k] = f
	}
	return f
}

// parseA returns an A record's address, from the facts enrichment memoized
// when it has them.
func (m *detMemo) parseA(rdata string) (netip.Addr, bool) {
	if f, ok := m.rdata[rdataKey{dns.TypeA, rdata}]; ok {
		return f.addr, f.addr.IsValid()
	}
	addr, err := netip.ParseAddr(rdata)
	return addr, err == nil
}
