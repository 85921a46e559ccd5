package core

import (
	"context"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/simnet"
	"repro/internal/websim"
	"repro/internal/zone"
)

// collectorFixture wires a miniature measurement surface by hand: one
// nameserver carrying a UR zone, one protective-record server, one
// open-resolver stand-in, and the web layer.
type collectorFixture struct {
	cfg       *Config
	urNS      NameserverInfo
	protNS    NameserverInfo
	protAddr  netip.Addr
	c2Addr    netip.Addr
	legitAddr netip.Addr
}

func newCollectorFixture(t *testing.T) *collectorFixture {
	t.Helper()
	fx := &collectorFixture{}
	fabric := simnet.New(9)
	ipdb := ipam.New()
	web := websim.NewWorld(fabric)

	hostASN := ipdb.RegisterAS("HOSTER", "US", 1)
	attackASN := ipdb.RegisterAS("ATTACK", "RU", 1)
	legitASN := ipdb.RegisterAS("LEGIT-WEB", "DE", 1)

	fx.c2Addr = ipdb.MustAllocate(attackASN)
	fx.legitAddr = ipdb.MustAllocate(legitASN)
	if err := web.Install(&websim.Site{Addr: fx.legitAddr, Kind: websim.KindBusiness,
		Title: "site.com", Cert: websim.NewCert("site.com", "CA")}); err != nil {
		t.Fatal(err)
	}

	// UR nameserver: hosts attacker zone for site.com.
	urAddr := ipdb.MustAllocate(hostASN)
	urSrv := authority.NewServer()
	z := zone.New("site.com")
	z.MustAddRR("site.com 120 IN A " + fx.c2Addr.String())
	z.MustAddRR(`site.com 120 IN TXT "v=spf1 ip4:` + fx.c2Addr.String() + ` -all"`)
	if err := urSrv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsio.AttachSim(fabric, urAddr, urSrv); err != nil {
		t.Fatal(err)
	}
	fx.urNS = NameserverInfo{Addr: urAddr, Host: "ns1.hoster.test", Provider: "Hoster"}

	// Protective nameserver: answers every A query with a fixed warning IP.
	fx.protAddr = ipdb.MustAllocate(hostASN)
	protNSAddr := ipdb.MustAllocate(hostASN)
	prot := dnsio.ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		if q.Question().Type == dns.TypeA {
			r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name,
				Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: fx.protAddr}})
		}
		return r
	})
	if _, err := dnsio.AttachSim(fabric, protNSAddr, prot); err != nil {
		t.Fatal(err)
	}
	fx.protNS = NameserverInfo{Addr: protNSAddr, Host: "ns1.prot.test", Provider: "Protector"}

	// Open resolver stand-in: answers site.com with the legitimate address.
	resolverAddr := ipdb.MustAllocate(hostASN)
	legit := dnsio.ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		r.Header.RecursionAvailable = true
		if q.Question().Name != "site.com" {
			r.Header.RCode = dns.RCodeNXDomain
			return r
		}
		switch q.Question().Type {
		case dns.TypeA:
			r.Answers = append(r.Answers, dns.RR{Name: "site.com",
				Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: fx.legitAddr}})
		case dns.TypeTXT:
			r.Answers = append(r.Answers, dns.RR{Name: "site.com",
				Class: dns.ClassINET, TTL: 60, Data: dns.NewTXT("v=spf1 -all")})
		}
		return r
	})
	if _, err := dnsio.AttachSim(fabric, resolverAddr, legit); err != nil {
		t.Fatal(err)
	}

	collectorSrc := ipdb.MustAllocate(hostASN)
	fx.cfg = &Config{
		Fabric:        fabric,
		IPDB:          ipdb,
		Web:           web,
		SrcAddr:       collectorSrc,
		Targets:       []dns.Name{"site.com", "other.net"},
		Nameservers:   []NameserverInfo{fx.urNS, fx.protNS},
		OpenResolvers: []netip.Addr{resolverAddr},
		DelegatedNS: func(d dns.Name) []dns.Name {
			if d == "site.com" {
				return []dns.Name{"ns1.legit.test"}
			}
			return nil
		},
		Now:         time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC),
		Parallelism: 2,
	}
	return fx
}

// sweepNameservers runs the fused nameserver sweep — the one collection path
// Pipeline.Run ships — on its own, and returns the collector with what the
// sweep produced: the records in canonical order, enriched as the determine
// workers would, and the protective database.
func sweepNameservers(t *testing.T, cfg *Config) (*Collector, []*UR, *ProtectiveDB) {
	t.Helper()
	col := NewCollector(cfg)
	db := NewProtectiveDB(cfg.Nameservers)
	var mu sync.Mutex
	var urs []*UR
	err := col.collectNameservers(context.Background(), db, func(batch []*UR) {
		mu.Lock()
		urs = append(urs, batch...)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sortURs(urs)
	memo := newDetMemo()
	for _, u := range urs {
		col.enrichOne(memo, u)
	}
	return col, urs, db
}

func TestCollectURs(t *testing.T) {
	fx := newCollectorFixture(t)
	col, urs, _ := sweepNameservers(t, fx.cfg)
	// UR NS: A + TXT for site.com. Protective NS: A for both targets.
	var fromUR, fromProt int
	for _, u := range urs {
		switch u.Server.Provider {
		case "Hoster":
			fromUR++
			if u.Domain != "site.com" {
				t.Errorf("unexpected UR domain %v", u.Domain)
			}
		case "Protector":
			fromProt++
		}
	}
	if fromUR != 2 {
		t.Errorf("URs from hoster = %d, want 2 (A+TXT)", fromUR)
	}
	if fromProt != 2 {
		t.Errorf("URs from protector = %d, want 2 (A for each target)", fromProt)
	}
	// Enrichment: the A UR carries AS/country/probe data.
	for _, u := range urs {
		if u.Server.Provider == "Hoster" && u.Type == dns.TypeA {
			if e := u.Enrichment(); e.ASName != "ATTACK" || e.Country != "RU" {
				t.Errorf("enrichment: %+v", u)
			}
			if len(u.CorrespondingIPs) != 1 || u.CorrespondingIPs[0] != fx.c2Addr {
				t.Errorf("corresponding IPs: %v", u.CorrespondingIPs)
			}
		}
		if u.Server.Provider == "Hoster" && u.Type == dns.TypeTXT {
			if c := u.Enrichment().TXTClass; c != TXTSPF {
				t.Errorf("TXT class = %v", c)
			}
			if len(u.CorrespondingIPs) != 1 {
				t.Errorf("TXT embedded IPs: %v", u.CorrespondingIPs)
			}
		}
	}
	if col.Queries() == 0 {
		t.Error("query counter not incremented")
	}
}

func TestCollectURsSkipsExactDelegation(t *testing.T) {
	fx := newCollectorFixture(t)
	fx.cfg.DelegatedNS = func(d dns.Name) []dns.Name {
		if d == "site.com" {
			return []dns.Name{"ns1.hoster.test"} // now exactly delegated
		}
		return nil
	}
	_, urs, _ := sweepNameservers(t, fx.cfg)
	for _, u := range urs {
		if u.Server.Provider == "Hoster" && u.Domain == "site.com" {
			t.Errorf("exactly-delegated pair collected: %+v", u)
		}
	}
}

func TestCollectCorrect(t *testing.T) {
	fx := newCollectorFixture(t)
	col := NewCollector(fx.cfg)
	db, err := col.CollectCorrect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := db.Lookup("site.com")
	if !ok {
		t.Fatal("no profile for site.com")
	}
	if !prof.IPs[fx.legitAddr] {
		t.Errorf("legit IP missing: %v", prof.IPs)
	}
	if len(prof.CertFPs) != 1 {
		t.Errorf("cert fingerprints: %v", prof.CertFPs)
	}
	if len(prof.TXTs) != 1 {
		t.Errorf("TXTs: %v", prof.TXTs)
	}
	if len(prof.Countries) != 1 || !prof.Countries["DE"] {
		t.Errorf("countries: %v", prof.Countries)
	}
	// other.net is answered NXDOMAIN: its profile exists and holds nothing.
	other, ok := db.Lookup("other.net")
	if !ok {
		t.Fatal("no profile for other.net")
	}
	if n := len(other.IPs) + len(other.ASNs) + len(other.Countries) + len(other.CertFPs) + len(other.TXTs) + len(other.Other); n != 0 {
		t.Errorf("the unanswered target's profile holds %d entries: %+v", n, other)
	}
}

func TestCollectProtective(t *testing.T) {
	fx := newCollectorFixture(t)
	_, _, db := sweepNameservers(t, fx.cfg)
	if !db.Match(fx.protNS.Addr, dns.TypeA, fx.protAddr.String()) {
		t.Error("protective record not captured")
	}
	if db.Match(fx.urNS.Addr, dns.TypeA, fx.protAddr.String()) {
		t.Error("protective record attributed to wrong server")
	}
}

func TestPipelineOnFixture(t *testing.T) {
	fx := newCollectorFixture(t)
	pipe := NewPipeline(fx.cfg)
	res, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The protective NS answers are excluded; the attacker A+TXT survive as
	// suspicious (no intel/IDS configured, so they stay unknown).
	if len(res.Suspicious) != 2 {
		t.Fatalf("suspicious = %d: %+v", len(res.Suspicious), res.Suspicious)
	}
	counts := res.CategoryCounts()
	if counts[CategoryProtective] != 2 {
		t.Errorf("protective = %d", counts[CategoryProtective])
	}
	if counts[CategoryUnknown] != 2 {
		t.Errorf("unknown = %d", counts[CategoryUnknown])
	}
}

func TestPipelineFalseNegativeCheckOnFixture(t *testing.T) {
	fx := newCollectorFixture(t)
	pipe := NewPipeline(fx.cfg)
	if pipe.Collector() == nil {
		t.Fatal("nil collector accessor")
	}
	res, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total, fn, err := pipe.FalseNegativeCheck(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	// The stand-in resolver answers site.com A+TXT; both are delegated
	// records and must be excluded.
	if total != 2 {
		t.Errorf("evaluated = %d, want 2", total)
	}
	if fn != 0 {
		t.Errorf("false negatives = %d", fn)
	}
	// With no resolvers the check degrades to a no-op.
	fx.cfg.OpenResolvers = nil
	total, fn, err = NewPipeline(fx.cfg).FalseNegativeCheck(context.Background(), res)
	if err != nil || total != 0 || fn != 0 {
		t.Errorf("no-resolver check: %d %d %v", total, fn, err)
	}
}

func TestLabelReasonsTotal(t *testing.T) {
	l := LabelReasons{IntelOnly: 2, IDSOnly: 3, Both: 4}
	if l.Total() != 9 {
		t.Errorf("Total = %d", l.Total())
	}
	var b ProviderBreakdown
	if b.Total() != 0 {
		t.Errorf("empty breakdown total = %d", b.Total())
	}
}

// TestProbeSingleflight hammers one IP from many goroutines and asserts the
// underlying web probe ran exactly once — concurrent sweep workers coalesce
// instead of duplicating fetches.
func TestProbeSingleflight(t *testing.T) {
	fx := newCollectorFixture(t)
	col := NewCollector(fx.cfg)
	var calls atomic.Int32
	inner := col.probeFn
	col.probeFn = func(src, dst netip.Addr) websim.ProbeResult {
		calls.Add(1)
		time.Sleep(time.Millisecond) // widen the duplicate-probe window
		return inner(src, dst)
	}
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]websim.ProbeResult, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = col.probe(fx.legitAddr)
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("web probe ran %d times for one IP, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g].StatusCode != results[0].StatusCode {
			t.Errorf("goroutine %d saw a different probe result", g)
		}
	}
	// A second, distinct IP triggers exactly one more probe.
	col.probe(fx.c2Addr)
	if n := calls.Load(); n != 2 {
		t.Errorf("probes after second IP = %d, want 2", n)
	}
}

// TestPipelineStressHighParallelismWithLoss runs the full pipeline with far
// more workers than nameservers and loss injection enabled; under -race this
// exercises every concurrent path of the collector (sharded accounting,
// singleflight probes, per-worker merges, parallel protective sweep).
func TestPipelineStressHighParallelismWithLoss(t *testing.T) {
	fx := newCollectorFixture(t)
	fx.cfg.Parallelism = 32
	fx.cfg.Fabric.SetLossRate(0.10)
	for round := 0; round < 3; round++ {
		res, err := NewPipeline(fx.cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Queries == 0 {
			t.Fatal("no queries booked")
		}
		for _, u := range res.URs {
			if u.Category == CategoryUnknown && u.Reason != ReasonNone {
				t.Errorf("inconsistent UR %+v", u)
			}
		}
	}
	if fx.cfg.Fabric.Drops() == 0 {
		t.Error("loss injection never fired")
	}
}

// TestCanaryNameDeterministic pins the satellite fix: the protective-record
// canary is a pure function of the config seed, not of wall-clock time.
func TestCanaryNameDeterministic(t *testing.T) {
	a := (&Config{Seed: 42}).CanaryName()
	b := (&Config{Seed: 42}).CanaryName()
	if a != b {
		t.Errorf("same seed produced different canaries: %s vs %s", a, b)
	}
	if c := (&Config{Seed: 43}).CanaryName(); c == a {
		t.Errorf("different seeds produced the same canary %s", c)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("canary %s invalid: %v", a, err)
	}
}

// TestMergeURsMatchesSort: merging batches that are each in canonical order
// gives what sortURs gives over their concatenation — the same records, in
// an order that agrees on every key. Records are drawn from two values per
// key, so ties fall on every key and whole records tie; most batches are one
// server's, as a nameserver job's are, and one spans every server, as the
// re-queue's does.
func TestMergeURsMatchesSort(t *testing.T) {
	servers := []*NameserverInfo{
		{Addr: netip.MustParseAddr("10.0.0.2")},
		{Addr: netip.MustParseAddr("10.0.0.1")},
		{Addr: netip.MustParseAddr("2001:db8::1")},
	}
	rng := rand.New(rand.NewSource(1))
	draw := func(ns *NameserverInfo) *UR {
		return &UR{
			Server: ns,
			Domain: []dns.Name{"b.example", "a.example"}[rng.Intn(2)],
			Type:   []dns.Type{dns.TypeTXT, dns.TypeA}[rng.Intn(2)],
			RData:  []string{"y", "x"}[rng.Intn(2)],
			TTL:    []uint32{300, 60}[rng.Intn(2)],
		}
	}
	for round := 0; round < 500; round++ {
		var batches [][]*UR
		for range rng.Intn(10) {
			ns := servers[rng.Intn(len(servers))]
			b := make([]*UR, rng.Intn(12))
			for i := range b {
				b[i] = draw(ns)
			}
			batches = append(batches, b)
		}
		requeue := make([]*UR, rng.Intn(12))
		for i := range requeue {
			requeue[i] = draw(servers[rng.Intn(len(servers))])
		}
		batches = append(batches, requeue)
		rng.Shuffle(len(batches), func(i, k int) { batches[i], batches[k] = batches[k], batches[i] })
		for _, b := range batches {
			sortURs(b)
		}
		want := slices.Concat(batches...)
		sortURs(want)
		got := mergeURs(batches)
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %d records of %d", round, len(got), len(want))
		}
		count := map[*UR]int{}
		for i := range want {
			count[want[i]]++
			count[got[i]]--
			if compareURs(got[i], want[i]) != 0 {
				t.Fatalf("round %d: record %d merges as %+v, sorts as %+v", round, i, *got[i], *want[i])
			}
		}
		for u, n := range count {
			if n != 0 {
				t.Fatalf("round %d: %+v is merged %d times more than it was collected", round, *u, -n)
			}
		}
	}
}
