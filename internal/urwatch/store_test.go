package urwatch

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
)

// mkUR builds a test record as a sweep makes it, with a server of its own;
// the (server, domain, type, rdata) tuple is its identity.
func mkUR(domain string, server string, cat core.Category, rdata string) *core.UR {
	u := &core.UR{
		Server:   &core.NameserverInfo{Addr: netip.MustParseAddr(server), Host: dns.Name("ns." + domain), Provider: "TestDNS"},
		Domain:   dns.Name(domain),
		Type:     dns.TypeA,
		RData:    rdata,
		TTL:      120,
		Category: cat,
	}
	if ip, err := netip.ParseAddr(rdata); err == nil {
		u.CorrespondingIPs = []netip.Addr{ip}
	}
	return u
}

// sealGen seals records as a sweep's result, swept seq seconds past the epoch.
func sealGen(seq uint64, urs ...*core.UR) *Generation {
	return SnapshotFromResult(&core.Result{URs: urs}, seq, time.Unix(int64(seq), 0))
}

// urKey is a record's §5.1 identity key.
func urKey(u *core.UR) string {
	return string(AppendKey(nil, u.Server.Addr, u.Domain, u.Type, u.RData))
}

// viewUR materializes a verdict as the record a sweep would make of it.
func viewUR(v VerdictView) *core.UR {
	return &core.UR{
		Server: &core.NameserverInfo{Addr: v.Server(), Host: v.NSHost(), Provider: v.Provider()},
		Domain: v.Domain(), Type: v.Type(), RData: v.RData(), TTL: v.TTL(),
		CorrespondingIPs: append([]netip.Addr(nil), v.IPs()...),
		Category:         v.Category(), Reason: v.Reason(),
		MaliciousByIntel: v.ByIntel(), MaliciousByIDS: v.ByIDS(),
	}
}

// findUR returns the verdict with u's identity, read from u's domain run.
func findUR(g *Generation, u *core.UR) (VerdictView, bool) {
	vs, key := g.Domain(u.Domain), urKey(u)
	for i := 0; i < vs.Len(); i++ {
		if v := vs.At(i); v.Key() == key {
			return v, true
		}
	}
	return VerdictView{}, false
}

// mustACL parses a static allowlist.
func mustACL(s string) *ACL {
	a, err := ParseACL(s)
	if err != nil {
		panic(err)
	}
	return a
}

func TestSealIndexes(t *testing.T) {
	v1 := mkUR("a.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")
	v2 := mkUR("a.test", "192.0.2.2", core.CategoryUnknown, "198.51.100.7")
	v3 := mkUR("b.test", "192.0.2.1", core.CategoryCorrect, "203.0.113.9")
	g := sealGen(1, v2, v1, v3, v1) // duplicate v1 must dedup; order shuffled

	if g.Total() != 3 {
		t.Fatalf("Total = %d, want 3", g.Total())
	}
	if got := g.Count(core.CategoryMalicious); got != 1 {
		t.Errorf("malicious count = %d, want 1", got)
	}
	vs := g.Domain("a.test")
	if vs.Len() != 2 {
		t.Fatalf("Domain(a.test) = %d verdicts, want 2", vs.Len())
	}
	// Canonical order: by server.
	if vs.At(0).Server() != v1.Server.Addr || vs.At(1).Server() != v2.Server.Addr {
		t.Errorf("Domain verdicts out of canonical order: %v, %v", vs.At(0).Server(), vs.At(1).Server())
	}
	if _, ok := findUR(g, v3); !ok {
		t.Errorf("%q missing from its domain run", urKey(v3))
	}
	byIP := g.IP(netip.MustParseAddr("198.51.100.7"))
	if byIP.Len() != 2 {
		t.Errorf("IP index = %d verdicts, want 2", byIP.Len())
	}
	ps, ok := g.Provider("TestDNS")
	if !ok || ps.Total != 3 {
		t.Errorf("Provider stats = %+v, ok=%v", ps, ok)
	}
	if ps.Counts[core.CategoryMalicious.String()] != 1 {
		t.Errorf("provider malicious count = %d", ps.Counts[core.CategoryMalicious.String()])
	}
	if got := len(g.Providers()); got != 1 {
		t.Errorf("Providers() = %d entries", got)
	}
}

func TestWorstCategory(t *testing.T) {
	mk := func(cats ...core.Category) VerdictSet {
		var urs []*core.UR
		for i, c := range cats {
			urs = append(urs, mkUR("w.test", fmt.Sprintf("192.0.2.%d", i+1), c, "203.0.113.1"))
		}
		return sealGen(1, urs...).Domain("w.test")
	}
	if _, ok := WorstCategory(VerdictSet{}); ok {
		t.Error("WorstCategory(empty) ok = true")
	}
	cases := []struct {
		vs   VerdictSet
		want core.Category
	}{
		{mk(core.CategoryCorrect), core.CategoryCorrect},
		{mk(core.CategoryCorrect, core.CategoryProtective), core.CategoryProtective},
		{mk(core.CategoryProtective, core.CategoryUnknown), core.CategoryUnknown},
		{mk(core.CategoryUnknown, core.CategoryMalicious, core.CategoryCorrect), core.CategoryMalicious},
	}
	for i, c := range cases {
		if got, _ := WorstCategory(c.vs); got != c.want {
			t.Errorf("case %d: worst = %v, want %v", i, got, c.want)
		}
	}
}

func TestStorePublishMonotonic(t *testing.T) {
	s := NewStore()
	if s.Current().Seq != 0 {
		t.Fatalf("fresh store seq = %d", s.Current().Seq)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		d := s.Publish(sealGen(seq,
			mkUR("a.test", "192.0.2.1", core.CategoryUnknown, fmt.Sprintf("198.51.100.%d", seq))))
		if d.ToSeq != seq {
			t.Errorf("diff ToSeq = %d, want %d", d.ToSeq, seq)
		}
		if s.Current().Seq != seq {
			t.Errorf("Current().Seq = %d, want %d", s.Current().Seq, seq)
		}
	}
	// Three swaps: each replaces the single verdict (1 appear; then
	// 1 appear + 1 remove per swap).
	if got := s.Log().LastSeq(); got != 5 {
		t.Errorf("event log last seq = %d, want 5", got)
	}
}

// TestConcurrentReadersDuringSwap is the -race generation-swap test: readers
// hammer Current() while a writer publishes a stream of generations. Every
// generation is self-describing (all its verdicts' RData encode its seq), so
// a reader can detect a torn snapshot — verdicts from one generation served
// under another's header — and seq must never run backwards per reader.
func TestConcurrentReadersDuringSwap(t *testing.T) {
	s := NewStore()
	const generations = 200
	const readers = 8

	genFor := func(seq uint64) *Generation {
		var urs []*core.UR
		n := int(seq%7) + 1 // varying size so totals differ across gens
		for i := 0; i < n; i++ {
			urs = append(urs, mkUR(fmt.Sprintf("d%d.test", i), fmt.Sprintf("192.0.2.%d", i+1), core.CategoryUnknown, fmt.Sprintf("gen-%d", seq)))
		}
		return sealGen(seq, urs...)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := s.Current()
				if g.Seq < lastSeq {
					errs <- fmt.Sprintf("seq ran backwards: %d after %d", g.Seq, lastSeq)
					return
				}
				lastSeq = g.Seq
				if g.Seq == 0 {
					continue
				}
				want := fmt.Sprintf("gen-%d", g.Seq)
				n := 0
				for i := 0; i < 7; i++ {
					vs := g.Domain(dns.Name(fmt.Sprintf("d%d.test", i)))
					for j := 0; j < vs.Len(); j++ {
						n++
						if rd := vs.At(j).RData(); rd != want {
							errs <- fmt.Sprintf("torn read: verdict %q inside generation %d", rd, g.Seq)
							return
						}
					}
				}
				if n != g.Total() {
					errs <- fmt.Sprintf("generation %d: walked %d verdicts, Total()=%d", g.Seq, n, g.Total())
					return
				}
			}
		}()
	}

	for seq := uint64(1); seq <= generations; seq++ {
		s.Publish(genFor(seq))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.Current().Seq != generations {
		t.Errorf("final seq = %d, want %d", s.Current().Seq, generations)
	}
}
