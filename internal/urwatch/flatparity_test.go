package urwatch

// Differential test of the flat generation store against a map-era reference
// model. The reference rebuilds the indexes the store used before the flat
// refactor — maps of pointer slices, sorted with the old comparators — and
// renders HTTP and DNSBL answers from them with the same format strings the
// front-ends use. Every generation in a mutation grid must then serve
// byte-identical bodies and packed DNS messages through the flat store, and
// every adjacent generation pair must produce a diff identical to the
// reference map-walk diff. This is the acceptance criterion that the layout
// change is invisible to every consumer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
)

// httpGet fetches a URL and returns the body, failing the test on transport
// errors.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// refModel is the map-era store: one map per lookup dimension, values
// pre-sorted with the old per-dimension comparators.
type refModel struct {
	seq      uint64
	byKey    map[string]*core.UR
	byDomain map[dns.Name][]*core.UR
	byIP     map[netip.Addr][]*core.UR
	provs    []*ProviderStats
	counts   map[core.Category]int
}

func newRefModel(seq uint64, vs []*core.UR) *refModel {
	m := &refModel{
		seq:      seq,
		byKey:    make(map[string]*core.UR),
		byDomain: make(map[dns.Name][]*core.UR),
		byIP:     make(map[netip.Addr][]*core.UR),
		counts:   make(map[core.Category]int),
	}
	provByName := make(map[string]*ProviderStats)
	for _, v := range vs {
		key := urKey(v)
		if _, dup := m.byKey[key]; dup {
			continue // first-wins, like the seal
		}
		m.byKey[key] = v
		m.byDomain[v.Domain] = append(m.byDomain[v.Domain], v)
		seen := make(map[netip.Addr]bool)
		for _, ip := range v.CorrespondingIPs {
			if seen[ip] {
				continue
			}
			seen[ip] = true
			m.byIP[ip] = append(m.byIP[ip], v)
		}
		ps := provByName[v.Server.Provider]
		if ps == nil {
			ps = &ProviderStats{Provider: v.Server.Provider, Counts: make(map[string]int)}
			provByName[v.Server.Provider] = ps
		}
		ps.Total++
		ps.Counts[v.Category.String()]++
		m.counts[v.Category]++
	}
	// Old per-domain order: (server, type, rdata).
	for _, list := range m.byDomain {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if cmp := a.Server.Addr.Compare(b.Server.Addr); cmp != 0 {
				return cmp < 0
			}
			if a.Type != b.Type {
				return a.Type < b.Type
			}
			return a.RData < b.RData
		})
	}
	// Old per-IP order: canonical (server, domain, type, rdata).
	for _, list := range m.byIP {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if cmp := a.Server.Addr.Compare(b.Server.Addr); cmp != 0 {
				return cmp < 0
			}
			if a.Domain != b.Domain {
				return a.Domain < b.Domain
			}
			if a.Type != b.Type {
				return a.Type < b.Type
			}
			return a.RData < b.RData
		})
	}
	for _, ps := range provByName {
		m.provs = append(m.provs, ps)
	}
	sort.Slice(m.provs, func(i, j int) bool { return m.provs[i].Provider < m.provs[j].Provider })
	return m
}

func refWorst(vs []*core.UR) (core.Category, bool) {
	if len(vs) == 0 {
		return core.CategoryCorrect, false
	}
	worst := vs[0].Category
	for _, v := range vs[1:] {
		if categoryRank(v.Category) > categoryRank(worst) {
			worst = v.Category
		}
	}
	return worst, true
}

func refVerdictJSON(v *core.UR) VerdictJSON {
	out := VerdictJSON{
		Domain:   string(v.Domain),
		Type:     v.Type.String(),
		RData:    v.RData,
		TTL:      v.TTL,
		Server:   v.Server.Addr.String(),
		NSHost:   string(v.Server.Host),
		Provider: v.Server.Provider,
		Category: v.Category.String(),
		Reason:   string(v.Reason),
		ByIntel:  v.MaliciousByIntel,
		ByIDS:    v.MaliciousByIDS,
	}
	for _, ip := range v.CorrespondingIPs {
		out.IPs = append(out.IPs, ip.String())
	}
	return out
}

// refLookupBody renders the /v1/lookup body from the reference model with
// the same envelope marshaling the handler uses.
func refLookupBody(t *testing.T, m *refModel, label string, vs []*core.UR) []byte {
	t.Helper()
	resp := lookupResponse{Generation: m.seq, Query: label, Listed: len(vs) > 0}
	if len(vs) > 0 {
		w, _ := refWorst(vs)
		resp.Worst = w.String()
	}
	resp.Verdicts = make([]VerdictJSON, 0, len(vs))
	for _, v := range vs {
		resp.Verdicts = append(resp.Verdicts, refVerdictJSON(v))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// refDiff is the map-era differ: key-map walks over both generations'
// verdict sets, final-sorted by (Key, Kind) with Gen stamped — the exact
// contract the merge-walk Diff must preserve.
func refDiff(prev, next *refModel, fromSeq, toSeq uint64) *GenDiff {
	d := &GenDiff{FromSeq: fromSeq, ToSeq: toSeq}
	add := func(kind EventKind, v *core.UR, old, new_ string) {
		d.Events = append(d.Events, Event{
			Kind: kind, Key: urKey(v), Domain: string(v.Domain), Type: v.Type.String(),
			RData: v.RData, Server: v.Server.Addr.String(), Provider: v.Server.Provider,
			Old: old, New: new_,
		})
	}
	for key, pv := range prev.byKey {
		nv, ok := next.byKey[key]
		switch {
		case !ok:
			add(EventRemoved, pv, pv.Category.String(), "")
		case pv.Category != nv.Category:
			add(EventReclassified, nv, pv.Category.String(), nv.Category.String())
		}
	}
	for key, nv := range next.byKey {
		if _, ok := prev.byKey[key]; !ok {
			add(EventAppeared, nv, "", nv.Category.String())
		}
	}
	sort.Slice(d.Events, func(i, j int) bool {
		a, b := d.Events[i], d.Events[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Kind < b.Kind
	})
	for i := range d.Events {
		d.Events[i].Gen = toSeq
	}
	return d
}

// parityVerdict builds one grid record with every field populated.
func parityVerdict(domain, server string, typ dns.Type, rdata string, cat core.Category, opts ...func(*core.UR)) *core.UR {
	v := mkUR(domain, server, cat, rdata)
	v.Type, v.TTL = typ, 300
	v.Server.Host, v.Server.Provider = dns.Name("ns1."+domain), "GridDNS"
	for _, o := range opts {
		o(v)
	}
	return v
}

// parityGrid returns the mutation grid: a sequence of verdict sets where
// each step exercises a different kind of generation-to-generation change.
func parityGrid() [][]*core.UR {
	base := []*core.UR{
		parityVerdict("alpha.test", "192.0.2.1", dns.TypeA, "198.51.100.10", core.CategoryUnknown),
		parityVerdict("alpha.test", "192.0.2.2", dns.TypeA, "198.51.100.10", core.CategoryUnknown),
		parityVerdict("alpha.test", "192.0.2.1", dns.TypeTXT, "v=spf1 -all", core.CategoryCorrect,
			func(v *core.UR) { v.Reason = core.CorrectReason("spf"); v.Server.Provider = "OtherDNS" }),
		parityVerdict("beta.test", "192.0.2.1", dns.TypeA, "203.0.113.5", core.CategoryMalicious,
			func(v *core.UR) { v.MaliciousByIntel = true }),
		parityVerdict("gamma.test", "2001:db8::53", dns.TypeA, "203.0.113.5", core.CategoryProtective,
			func(v *core.UR) {
				v.Server.Host, v.CorrespondingIPs = "", append(v.CorrespondingIPs, netip.MustParseAddr("2001:db8::99"))
			}),
	}
	clone := func(mut func([]*core.UR) []*core.UR) []*core.UR {
		cp := make([]*core.UR, len(base))
		for i, v := range base {
			c := *v
			cp[i] = &c
		}
		return mut(cp)
	}
	return [][]*core.UR{
		nil,  // empty generation
		base, // everything appears
		clone(func(vs []*core.UR) []*core.UR { // one appears, multi-IP
			extra := parityVerdict("delta.test", "192.0.2.9", dns.TypeTXT, "ip4:198.51.100.10", core.CategoryUnknown,
				func(v *core.UR) {
					v.CorrespondingIPs, v.MaliciousByIDS = []netip.Addr{netip.MustParseAddr("198.51.100.10")}, true
				})
			return append(vs, extra)
		}),
		clone(func(vs []*core.UR) []*core.UR { // one removed
			return append(vs[:1], vs[2:]...)
		}),
		clone(func(vs []*core.UR) []*core.UR { // one reclassified
			vs[0].Category = core.CategoryMalicious
			vs[0].MaliciousByIntel = true
			return vs
		}),
		clone(func(vs []*core.UR) []*core.UR { // identity change: rdata swap
			vs[1].RData = "198.51.100.77"
			vs[1].CorrespondingIPs = []netip.Addr{netip.MustParseAddr("198.51.100.77")}
			return vs
		}),
		clone(func(vs []*core.UR) []*core.UR { // a name and an address past the TXT evidence cap
			for i := 0; i < maxTXTEvidence+2; i++ {
				vs = append(vs, parityVerdict("many.test", fmt.Sprintf("192.0.2.%d", 10+i), dns.TypeA, "198.51.100.200",
					core.CategoryUnknown, func(v *core.UR) { v.Server.Provider = "Grid DNS Hosting, Registrar & Parking Ltd." }))
			}
			return vs
		}),
		nil, // everything removed again
	}
}

// wireShape is how a grid question is put on the wire: the EDNS0 payload size
// (negative for no OPT), the transport, RD, and whether the question name's
// letters are upper-cased.
type wireShape struct {
	opt   int
	via   string
	rd    bool
	upper bool
}

// wireShapes are the forms every DNSBL grid question is asked in, beside the
// decoded HandleQuery form. The heavily listed name's TXT answer overflows
// 512 octets and fits in 1232.
var wireShapes = []wireShape{
	{opt: dns.MaxEDNS0Size, via: dnsio.ViaUDP, rd: true},
	{opt: -1, via: dnsio.ViaUDP, rd: true},
	{opt: 512, via: dnsio.ViaUDP},
	{opt: 1232, via: dnsio.ViaUDP, rd: true, upper: true},
	{opt: -1, via: dnsio.ViaTCP, rd: true},
	{opt: 512, via: dnsio.ViaDoH, upper: true},
}

// wireQuery packs a grid question in shape sh.
func wireQuery(t testing.TB, id uint16, name dns.Name, typ dns.Type, sh wireShape) []byte {
	t.Helper()
	q := dns.NewQuery(id, name, typ)
	q.Header.RecursionDesired = sh.rd
	if sh.opt >= 0 {
		q.Additional = append(q.Additional, dns.RR{Class: dns.Class(sh.opt), Data: &dns.OPT{}})
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatalf("pack query %s %s: %v", name, typ, err)
	}
	if sh.upper {
		qname := raw[12 : 12+len(name)+1]
		copy(qname, bytes.ToUpper(qname)) // the length octets are below 'a' and stay put
	}
	return raw
}

// shapeReply turns the reference reply to an RD-set question into the reply
// shape sh must get: RD as asked and, over UDP only, header and question with
// TC once the reply passes the clamped payload size.
func shapeReply(t *testing.T, ref []byte, sh wireShape) []byte {
	t.Helper()
	want := append([]byte(nil), ref...)
	if !sh.rd {
		want[2] &^= 0x01
	}
	limit := dns.MaxUDPSize
	if sh.opt >= 0 {
		limit = min(max(sh.opt, dns.MaxUDPSize), dns.MaxEDNS0Size)
	}
	if sh.via != dnsio.ViaUDP || len(want) <= limit {
		return want
	}
	full, err := dns.Unpack(want)
	if err != nil {
		t.Fatal(err)
	}
	tc := &dns.Message{Header: full.Header, Questions: full.Questions}
	tc.Header.Truncated = true
	if want, err = tc.Pack(); err != nil {
		t.Fatal(err)
	}
	return want
}

// messagePathOnly hides everything of z but its message API, so dnsio serves
// it by unpacking, calling HandleQueryVia and packing.
func messagePathOnly(z *ZoneResponder, via string) dnsio.Responder {
	return dnsio.ResponderFunc(func(src netip.Addr, q *dns.Message) *dns.Message {
		return z.HandleQueryVia(src, q, via)
	})
}

// TestFlatStoreParity drives the mutation grid through the flat store and
// the reference model and requires byte-identical serving plus identical
// diffs at every step.
func TestFlatStoreParity(t *testing.T) {
	const apex = dns.Name("feed.test")
	grid := parityGrid()

	var prevGen *Generation
	var prevRef *refModel
	for step, vs := range grid {
		seq := uint64(step + 1)
		g := sealGen(seq, vs...)
		ref := newRefModel(seq, vs)

		// Counts and provider aggregates.
		if g.Total() != len(ref.byKey) {
			t.Fatalf("step %d: Total=%d ref=%d", step, g.Total(), len(ref.byKey))
		}
		for _, c := range []core.Category{core.CategoryUnknown, core.CategoryCorrect,
			core.CategoryProtective, core.CategoryMalicious} {
			if g.Count(c) != ref.counts[c] {
				t.Errorf("step %d: Count(%v)=%d ref=%d", step, c, g.Count(c), ref.counts[c])
			}
		}
		if !reflect.DeepEqual(g.Providers(), ref.provs) && !(len(g.Providers()) == 0 && len(ref.provs) == 0) {
			t.Errorf("step %d: Providers()=%v ref=%v", step, g.Providers(), ref.provs)
		}
		// Every reference record materializes, field by field, from its
		// domain's run in the run's order.
		for d, list := range ref.byDomain {
			vs := g.Domain(d)
			for i := 0; i < max(vs.Len(), len(list)); i++ {
				if i >= vs.Len() || i >= len(list) || !reflect.DeepEqual(viewUR(vs.At(i)), list[i]) {
					t.Fatalf("step %d: %s run of %d, reference %d, differs at %d", step, d, vs.Len(), len(list), i)
				}
			}
		}

		store := NewStore()
		store.Restore(g)
		api := &API{Store: store}
		hs := httptest.NewServer(api.Handler())
		zr := &ZoneResponder{Apex: apex, Store: store}
		src := netip.MustParseAddr("10.9.9.9")

		// HTTP byte-identity over every domain and IP the grid ever uses,
		// plus never-listed probes.
		domains := []string{"alpha.test", "beta.test", "gamma.test", "delta.test", "many.test", "unlisted.test"}
		for _, d := range domains {
			body := httpGet(t, hs.URL+"/v1/lookup?domain="+d)
			want := refLookupBody(t, ref, "domain:"+d, ref.byDomain[dns.Name(d)])
			if !bytes.Equal(body, want) {
				t.Errorf("step %d: lookup?domain=%s body mismatch\n got: %s\nwant: %s", step, d, body, want)
			}
		}
		ips := []string{"198.51.100.10", "203.0.113.5", "198.51.100.77", "198.51.100.200", "2001:db8::99", "192.0.2.250"}
		for _, ip := range ips {
			addr := netip.MustParseAddr(ip)
			body := httpGet(t, hs.URL+"/v1/lookup?ip="+ip)
			want := refLookupBody(t, ref, "ip:"+addr.String(), ref.byIP[addr])
			if !bytes.Equal(body, want) {
				t.Errorf("step %d: lookup?ip=%s body mismatch\n got: %s\nwant: %s", step, ip, body, want)
			}
		}

		// DNSBL byte-identity: domain listing names (A + TXT), reversed-IP
		// names, the gen marker, and the zone SOA.
		var qid uint16
		queryBytes := func(name dns.Name, typ dns.Type) []byte {
			qid++
			resp := zr.HandleQuery(src, dns.NewQuery(qid, name, typ))
			packed, err := resp.Pack()
			if err != nil {
				t.Fatalf("step %d: pack %s %s: %v", step, name, typ, err)
			}
			return packed
		}
		refReply := func(name dns.Name, typ dns.Type, rcode dns.RCode, answers []dns.RR) []byte {
			q := dns.NewQuery(qid, name, typ) // qid already advanced by queryBytes's caller pairing
			r := q.Reply()
			r.Header.Authoritative = true
			r.Header.RCode = rcode
			r.Answers = answers
			if len(answers) == 0 {
				r.Authority = append(r.Authority, dns.MustParseRR(fmt.Sprintf(
					"%s %d IN SOA ns.%s hostmaster.%s %d 60 30 600 %d",
					apex, 30, apex, apex, seq, 30)))
			}
			packed, err := r.Pack()
			if err != nil {
				t.Fatalf("ref pack %s %s: %v", name, typ, err)
			}
			return packed
		}
		refTXT := func(name dns.Name, s string) dns.RR {
			return dns.MustParseRR(fmt.Sprintf("%s %d IN TXT %q", name, 30, s))
		}
		refListAnswers := func(qname dns.Name, typ dns.Type, list []*core.UR) (dns.RCode, []dns.RR) {
			if len(list) == 0 {
				return dns.RCodeNXDomain, nil
			}
			worst, _ := refWorst(list)
			switch typ {
			case dns.TypeA:
				return dns.RCodeSuccess, []dns.RR{dns.MustParseRR(fmt.Sprintf(
					"%s %d IN A 127.0.0.%d", qname, 30, categoryCode(worst)))}
			case dns.TypeTXT:
				answers := []dns.RR{refTXT(qname, fmt.Sprintf("gen=%d listed=%d worst=%s", seq, len(list), worst))}
				for i, v := range list {
					if i >= maxTXTEvidence {
						answers = append(answers, refTXT(qname, fmt.Sprintf("and %d more", len(list)-maxTXTEvidence)))
						break
					}
					ev := fmt.Sprintf("%s %s %s @%s (%s)", v.Category, v.Type, v.Domain, v.Server.Addr, v.Server.Provider)
					if v.MaliciousByIntel || v.MaliciousByIDS {
						ev += fmt.Sprintf(" intel=%t ids=%t", v.MaliciousByIntel, v.MaliciousByIDS)
					}
					answers = append(answers, refTXT(qname, ev))
				}
				return dns.RCodeSuccess, answers
			}
			return dns.RCodeSuccess, nil
		}
		// askWire puts one subtree question on the wire in every shape, each
		// through dnsio.ServeRaw twice: as the daemon serves it, where the
		// wire answer path must take it, and with only the message API
		// visible. Both must be the reference's bytes. refFor renders the
		// reference reply to the question the current qid names, RD set.
		askWire := func(z *ZoneResponder, qname dns.Name, typ dns.Type, refFor func() []byte) {
			t.Helper()
			for _, sh := range wireShapes {
				qid++
				raw := wireQuery(t, qid, qname, typ, sh)
				want := shapeReply(t, refFor(), sh)
				if _, handled := z.AppendWire(nil, src, raw, sh.via); !handled {
					t.Errorf("step %d: %s %s %+v: the wire path declined", step, qname, typ, sh)
				}
				if got := dnsio.ServeRaw(z, src, raw, sh.via); !bytes.Equal(got, want) {
					t.Errorf("step %d: ServeRaw %s %s %+v mismatch\n got: %x\nwant: %x", step, qname, typ, sh, got, want)
				}
				if got := dnsio.ServeRaw(messagePathOnly(z, sh.via), src, raw, sh.via); !bytes.Equal(got, want) {
					t.Errorf("step %d: message path %s %s %+v mismatch\n got: %x\nwant: %x", step, qname, typ, sh, got, want)
				}
			}
		}
		// askList asks one subtree name for A and TXT, and for AAAA and ANY
		// (NoData on a listed name: the SOA in the authority section),
		// decoded through HandleQuery and then on the wire.
		askList := func(qname dns.Name, list []*core.UR) {
			t.Helper()
			for _, typ := range []dns.Type{dns.TypeA, dns.TypeTXT, dns.TypeAAAA, dns.TypeANY} {
				rcode, answers := refListAnswers(qname, typ, list)
				got := queryBytes(qname, typ)
				if want := refReply(qname, typ, rcode, answers); !bytes.Equal(got, want) {
					t.Errorf("step %d: DNSBL %s %s mismatch\n got: %x\nwant: %x", step, qname, typ, got, want)
				}
				askWire(zr, qname, typ, func() []byte { return refReply(qname, typ, rcode, answers) })
			}
		}
		for _, d := range domains {
			askList(DomainName(dns.Name(d), apex), ref.byDomain[dns.Name(d)])
		}
		for _, ip := range ips {
			addr := netip.MustParseAddr(ip)
			qname, ok := ReverseIPName(addr, apex)
			if !ok {
				continue // v6 addresses have no urbl name; skipped by both sides
			}
			askList(qname, ref.byIP[addr])
		}
		// Reversed addresses netip.ParseAddr would not read name nothing.
		for _, rev := range []dns.Name{"1.2.3", "01.2.3.4", "256.1.1.1"} {
			askList(rev+".urbl."+apex, nil)
		}
		{
			// SOA timers under a staleness policy and an injected clock:
			// refresh from the sweep interval, retry half of it, expire the
			// budget left 250 s into a 600 s bound, TTL and minimum 30 s.
			pstore := NewStore()
			now := g.SweptAt.Add(250 * time.Second)
			pstore.SetPolicy(StalenessPolicy{SweepInterval: 45 * time.Second, MaxStaleness: 600 * time.Second,
				Clock: func() time.Time { return now }})
			pstore.Restore(g)
			qname := DomainName("unlisted.test", apex)
			askWire(&ZoneResponder{Apex: apex, Store: pstore}, qname, dns.TypeA, func() []byte {
				r := dns.NewQuery(qid, qname, dns.TypeA).Reply()
				r.Header.Authoritative = true
				r.Header.RCode = dns.RCodeNXDomain
				r.Authority = append(r.Authority, dns.MustParseRR(fmt.Sprintf(
					"%s 30 IN SOA ns.%s hostmaster.%s %d 45 22 350 30", apex, apex, apex, seq)))
				packed, err := r.Pack()
				if err != nil {
					t.Fatal(err)
				}
				return packed
			})

			// REFUSED, not authoritative, by the zone ACL and by a limiter
			// whose one token is spent (its clock never advances).
			limited := &ZoneResponder{Apex: apex, Store: store, Limiter: NewRateLimiter(1, 1, newVirtualClock().read)}
			limited.Limiter.Allow(src)
			for _, z := range []*ZoneResponder{
				{Apex: apex, Store: store, ZoneACL: mustACL("192.0.2.0/24")},
				limited,
			} {
				qname := DomainName("alpha.test", apex)
				askWire(z, qname, dns.TypeTXT, func() []byte {
					r := dns.NewQuery(qid, qname, dns.TypeTXT).Reply()
					r.Header.RCode = dns.RCodeRefused
					packed, err := r.Pack()
					if err != nil {
						t.Fatal(err)
					}
					return packed
				})
			}
		}
		{
			got := queryBytes("gen."+apex, dns.TypeTXT)
			s := fmt.Sprintf("gen=%d total=%d malicious=%d suspicious=%d protective=%d correct=%d",
				seq, len(ref.byKey), ref.counts[core.CategoryMalicious], ref.counts[core.CategoryUnknown],
				ref.counts[core.CategoryProtective], ref.counts[core.CategoryCorrect])
			if want := refReply("gen."+apex, dns.TypeTXT, dns.RCodeSuccess,
				[]dns.RR{refTXT("gen."+apex, s)}); !bytes.Equal(got, want) {
				t.Errorf("step %d: gen marker mismatch", step)
			}
		}
		hs.Close()

		// Diff parity against the map-walk reference.
		if prevGen != nil {
			flat := Diff(prevGen, g)
			want := refDiff(prevRef, ref, prevGen.Seq, seq)
			if !sameEvents(flat, want) {
				t.Fatalf("step %d: merge-walk diff != map-walk diff\n flat: %+v\n want: %+v",
					step, flat.Events, want.Events)
			}
		}
		prevGen, prevRef = g, ref
	}
}
