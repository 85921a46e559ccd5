package urwatch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/scenario"
)

// shareVerdicts is a hand-made feed whose records exercise every field a
// publish compares: several IPs on one record, a correct record's reason, a
// second provider, both evidence flags.
func shareVerdicts() []*core.UR {
	evil := mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")
	evil.MaliciousByIntel = true
	txt := mkUR("evil.test", "192.0.2.2", core.CategoryUnknown, "v=spf1 ip4:198.51.100.7 ip4:203.0.113.9")
	txt.Type = dns.TypeTXT
	txt.CorrespondingIPs = []netip.Addr{netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("203.0.113.9")}
	good := mkUR("good.test", "192.0.2.3", core.CategoryCorrect, "203.0.113.10")
	good.Reason = "A_IP"
	good.Server.Provider = "OtherDNS"
	ids := mkUR("ids.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.99")
	ids.MaliciousByIDS = true
	return []*core.UR{evil, txt, good, ids}
}

// copyVerdicts deep-copies a feed, so a mutation of one copy cannot reach
// a generation sealed from another.
func copyVerdicts(urs []*core.UR) []*core.UR {
	out := make([]*core.UR, len(urs))
	for i, u := range urs {
		c, ns := *u, *u.Server
		c.Server, c.CorrespondingIPs = &ns, append([]netip.Addr(nil), u.CorrespondingIPs...)
		out[i] = &c
	}
	return out
}

// axfrBytes is a full transfer of g as the zone's TCP path packs it.
func axfrBytes(t *testing.T, z *ZoneResponder, g *Generation) []byte {
	t.Helper()
	q := dns.NewQuery(7, z.Apex, dns.TypeAXFR)
	var out []byte
	err := z.streamFull(q, g, func(m *dns.Message) error {
		b, err := m.Pack()
		out = append(out, b...)
		return err
	})
	if err != nil {
		t.Fatalf("AXFR of generation %d: %v", g.Seq, err)
	}
	return out
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// tableSharing lists which of the five tables two generations share.
func tableSharing(a, b *Generation) [5]bool {
	return [5]bool{
		sameSlice(a.strs, b.strs), sameSlice(a.recs, b.recs), sameSlice(a.ipTab, b.ipTab),
		sameSlice(a.ipIdx, b.ipIdx), sameSlice(a.provs, b.provs),
	}
}

// TestPublishUnchangedSharesTables: a publish whose records all equal the
// current generation's takes its string table, records, IP arena, IP index
// and provider stats and keeps its own header; a change to any one field of
// one record shares nothing. Every published generation transfers as a fresh
// seal of its verdicts does.
func TestPublishUnchangedSharesTables(t *testing.T) {
	s := NewStore()
	z := &ZoneResponder{Apex: testApex, Store: s}
	base := shareVerdicts()
	seq := uint64(0)
	publish := func(vs []*core.UR) (prev, next *Generation) {
		seq++
		prev = s.Current()
		next = sealGen(seq, copyVerdicts(vs)...)
		next.Queries = int64(seq) * 10
		s.Publish(next)
		if s.Current() != next {
			t.Fatalf("generation %d: Current() is not the published generation", seq)
		}
		if fresh := sealGen(seq, copyVerdicts(vs)...); !bytes.Equal(axfrBytes(t, z, next), axfrBytes(t, z, fresh)) {
			t.Errorf("generation %d: AXFR differs from a fresh seal's", seq)
		}
		return prev, next
	}

	publish(base)
	prev, next := publish(base)
	if got := tableSharing(prev, next); got != [5]bool{true, true, true, true, true} {
		t.Fatalf("equal publish shares %v of (strs, recs, ipTab, ipIdx, provs), want all", got)
	}
	if next.counts != prev.counts || !next.sharesTables(prev) {
		t.Errorf("equal publish: counts %v vs %v, sharesTables %v", next.counts, prev.counts, next.sharesTables(prev))
	}
	if next.Seq != 2 || next.Queries != 20 || !next.SweptAt.Equal(time.Unix(2, 0)) {
		t.Errorf("shared generation's header = seq %d, queries %d, swept %v; want its own", next.Seq, next.Queries, next.SweptAt)
	}

	mutations := map[string]func(vs []*core.UR){
		"ttl":      func(vs []*core.UR) { vs[1].TTL++ },
		"reason":   func(vs []*core.UR) { vs[2].Reason = "A_ASN" },
		"ns host":  func(vs []*core.UR) { vs[0].Server.Host = "ns9.evil.test" },
		"provider": func(vs []*core.UR) { vs[3].Server.Provider = "OtherDNS" },
		"category": func(vs []*core.UR) { vs[2].Category = core.CategoryProtective },
		"by intel": func(vs []*core.UR) { vs[3].MaliciousByIntel = true },
		"by ids":   func(vs []*core.UR) { vs[0].MaliciousByIDS = true },
		"one ip":   func(vs []*core.UR) { vs[1].CorrespondingIPs[1] = netip.MustParseAddr("203.0.113.10") },
	}
	for name, mutate := range mutations {
		publish(base) // the current generation is the base feed again
		vs := copyVerdicts(base)
		mutate(vs)
		prev, next := publish(vs)
		if got := tableSharing(prev, next); got != [5]bool{} {
			t.Errorf("%s changed: publish shares %v of (strs, recs, ipTab, ipIdx, provs), want none", name, got)
		}
	}
}

// TestSealPinsSnapshot: a sweep's records sealed in place keep the first of
// each repeated identity on a hand-made set, and save the pinned snapshot
// bytes at small/42.
func TestSealPinsSnapshot(t *testing.T) {
	sweptAt := time.Unix(1_700_000_000, 0)
	saved := func(g *Generation) []byte {
		t.Helper()
		path, err := SaveGeneration(t.TempDir(), g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Hand-made: two identities appear twice, with different evidence.
	ns1 := &core.NameserverInfo{Addr: netip.MustParseAddr("192.0.2.1"), Host: "ns1.h.test", Provider: "H"}
	ns2 := &core.NameserverInfo{Addr: netip.MustParseAddr("192.0.2.2"), Host: "ns2.h.test", Provider: "H"}
	ip := netip.MustParseAddr("198.51.100.7")
	ur := func(ns *core.NameserverInfo, domain string, ttl uint32, cat core.Category) *core.UR {
		return &core.UR{Server: ns, Domain: dns.Name(domain), Type: dns.TypeA, RData: ip.String(),
			TTL: ttl, Category: cat, CorrespondingIPs: []netip.Addr{ip}}
	}
	hand := &core.Result{Queries: 9, URs: []*core.UR{
		ur(ns2, "b.test", 60, core.CategoryUnknown),
		ur(ns1, "a.test", 300, core.CategoryMalicious),
		ur(ns2, "b.test", 120, core.CategoryCorrect),
		ur(ns1, "a.test", 600, core.CategoryUnknown),
		ur(ns1, "b.test", 30, core.CategoryProtective),
	}}
	g := SnapshotFromResult(hand, 1, sweptAt)
	if g.Total() != 3 {
		t.Fatalf("hand-made set: %d records, want 3 (repeated identities dropped)", g.Total())
	}
	for _, want := range []struct {
		ns   *core.NameserverInfo
		dom  dns.Name
		ttl  uint32
		kind core.Category
	}{{ns1, "a.test", 300, core.CategoryMalicious}, {ns2, "b.test", 60, core.CategoryUnknown}} {
		v, ok := findUR(g, ur(want.ns, string(want.dom), 0, 0))
		if !ok {
			t.Errorf("%s@%s: no record", want.dom, want.ns.Addr)
		} else if v.TTL() != want.ttl || v.Category() != want.kind {
			t.Errorf("%s@%s: kept ttl %d %v, want the first added (ttl %d, %v)", want.dom, want.ns.Addr, v.TTL(), v.Category(), want.ttl, want.kind)
		}
	}

	if testing.Short() {
		t.Skip("small-world sweep")
	}
	w, err := scenario.Generate(scenario.Small(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewPipeline(w.URHunterConfig()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := saved(SnapshotFromResult(res, 1, sweptAt))
	// The file the seal wrote when it still copied every record into a
	// verdict struct first: reading the records in place changes no byte.
	const want = "2865ab1f28888901e2a5a111a3b238a7544242f56d3f70a0b3bd6e561c0716b6"
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != want {
		t.Errorf("small/42 snapshot sha256 %s (%d bytes), want %s", sum, len(got), want)
	}
}

// TestReadersDuringEqualPublishes runs readers against the store while the
// writer publishes runs of equal generations, each run ended by a changed
// one: every reader sees whole generations that never go backwards, each
// answering its run's content, and an equal publish shares its tables.
func TestReadersDuringEqualPublishes(t *testing.T) {
	s := NewStore()
	z := newTestResponder(s)
	const runs, perRun, readers = 8, 25, 4
	feed := func(run int) []*core.UR {
		vs := shareVerdicts()
		vs[0].RData = fmt.Sprintf("198.51.100.%d", run+1)
		vs[0].CorrespondingIPs = []netip.Addr{netip.MustParseAddr(vs[0].RData)}
		return vs
	}

	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers+runs*perRun)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := s.Current()
				if g.Seq < last {
					errs <- fmt.Sprintf("seq ran backwards: %d after %d", g.Seq, last)
					return
				}
				last = g.Seq
				if g.Seq == 0 {
					continue
				}
				run := int(g.Seq-1) / perRun
				want := feed(run)[0].RData
				if vs := g.Domain("evil.test"); vs.Len() != 2 || vs.At(0).RData() != want || g.Total() != 4 {
					errs <- fmt.Sprintf("generation %d: evil.test has %d verdicts, first %q, total %d; want 2, %q, 4",
						g.Seq, vs.Len(), vs.At(0).RData(), g.Total(), want)
					return
				}
				if m := ask(z, DomainName("evil.test", testApex), dns.TypeA); len(m.Answers) != 1 || m.Header.RCode != dns.RCodeSuccess {
					errs <- fmt.Sprintf("generation %d: evil.test answered %s with %d records", g.Seq, m.Header.RCode, len(m.Answers))
					return
				}
			}
		}()
	}

	started.Wait()
	seq := uint64(0)
	for run := 0; run < runs; run++ {
		var first *Generation
		for i := 0; i < perRun; i++ {
			seq++
			g := sealGen(seq, copyVerdicts(feed(run))...)
			s.Publish(g)
			if i == 0 {
				first = g
			} else if !g.sharesTables(first) {
				errs <- fmt.Sprintf("generation %d: an equal publish did not share its run's tables", seq)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
