package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/websim"
)

// TestSharedRDataCorrespondenceIsPerRecord holds the rdata memo's shared IP
// slices to their clip: two TXT records with the same rdata on two servers
// share one memoized slice, and each server's A sibling must land in its own
// record only. The rdata carries three addresses so an unclipped slice would
// have room for the append, and the second server's sibling would overwrite
// the first's.
func TestSharedRDataCorrespondenceIsPerRecord(t *testing.T) {
	cfg := analyzerConfig()
	cfg.IPDB = ipam.New()
	c := NewCollector(cfg)
	const spf = `"v=spf1 ip4:192.0.2.1 ip4:192.0.2.2 ip4:192.0.2.3 -all"`
	s1 := &NameserverInfo{Addr: netip.MustParseAddr("100.1.0.1"), Host: "ns1.h.test", Provider: "H"}
	s2 := &NameserverInfo{Addr: netip.MustParseAddr("100.1.0.2"), Host: "ns2.h.test", Provider: "H"}
	a1, a2 := netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("198.51.100.2")
	txt1 := &UR{Server: s1, Domain: "site.com", Type: dns.TypeTXT, RData: spf}
	txt2 := &UR{Server: s2, Domain: "site.com", Type: dns.TypeTXT, RData: spf}
	urs := []*UR{
		txt1, txt2,
		{Server: s1, Domain: "site.com", Type: dns.TypeA, RData: a1.String()},
		{Server: s2, Domain: "site.com", Type: dns.TypeA, RData: a2.String()},
	}
	memo := newDetMemo()
	for _, u := range urs {
		c.enrichOne(memo, u)
	}
	if len(txt1.CorrespondingIPs) != 3 || &txt1.CorrespondingIPs[0] != &txt2.CorrespondingIPs[0] {
		t.Fatalf("the two TXT records do not share one memoized slice (%v, %v); the test proves nothing",
			txt1.CorrespondingIPs, txt2.CorrespondingIPs)
	}
	NewAnalyzer(cfg).AnalyzeParallel(urs, 1)
	embedded := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.3"),
	}
	for _, tc := range []struct {
		u     *UR
		extra netip.Addr
	}{{txt1, a1}, {txt2, a2}} {
		if want := append(slices.Clone(embedded), tc.extra); !slices.Equal(tc.u.CorrespondingIPs, want) {
			t.Errorf("TXT on %s: corresponding IPs %v, want %v", tc.u.Server.Addr, tc.u.CorrespondingIPs, want)
		}
	}
}

// TestSharedEnrichmentNeverWrittenThroughUR holds the enrichment records and
// the corresponding-IP slices that URs of one (type, rdata) share to being
// read-only through any one UR. The analyzer's TXT correspondence appends to
// one record's IPs; a UR copied as the benchmark's determine pass copies it
// (c := *u, classification reset) is classified again. Neither may change
// another record's IPs, the original's classification, or a shared record.
func TestSharedEnrichmentNeverWrittenThroughUR(t *testing.T) {
	cfg := analyzerConfig()
	cfg.IPDB = ipam.New()
	asn := cfg.IPDB.RegisterAS("SHARED-NET", "NL", 1)
	c := NewCollector(cfg)
	c.probeFn = func(_, dst netip.Addr) websim.ProbeResult {
		return websim.ProbeResult{Reachable: true, StatusCode: 200, Body: "hello " + dst.String(),
			Cert: &websim.Cert{Subject: dst.String(), Fingerprint: "fp-" + dst.String()}}
	}
	const spf = `"v=spf1 ip4:192.0.2.1 ip4:192.0.2.2 ip4:192.0.2.3 -all"`
	embedded := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.3"),
	}
	s1 := &NameserverInfo{Addr: netip.MustParseAddr("100.1.0.1"), Host: "ns1.h.test", Provider: "H"}
	s2 := &NameserverInfo{Addr: netip.MustParseAddr("100.1.0.2"), Host: "ns2.h.test", Provider: "H"}
	s3 := &NameserverInfo{Addr: netip.MustParseAddr("100.1.0.3"), Host: "ns3.h.test", Provider: "H"}
	a1, a2 := cfg.IPDB.MustAllocate(asn), cfg.IPDB.MustAllocate(asn)
	txt1 := &UR{Server: s1, Domain: "site.com", Type: dns.TypeTXT, RData: spf}
	txt2 := &UR{Server: s2, Domain: "site.com", Type: dns.TypeTXT, RData: spf}
	txt3 := &UR{Server: s3, Domain: "site.com", Type: dns.TypeTXT, RData: spf} // no A sibling
	aRec1 := &UR{Server: s1, Domain: "site.com", Type: dns.TypeA, RData: a1.String()}
	aRec2 := &UR{Server: s2, Domain: "site.com", Type: dns.TypeA, RData: a2.String()}
	aRec3 := &UR{Server: s3, Domain: "other.com", Type: dns.TypeA, RData: a1.String()}
	urs := []*UR{txt1, txt2, txt3, aRec1, aRec2, aRec3}
	memo := newDetMemo()
	for _, u := range urs {
		c.enrichOne(memo, u)
	}
	txtRec, aRec := txt1.enr, aRec1.enr
	if txtRec == nil || txt2.enr != txtRec || txt3.enr != txtRec || aRec == nil || aRec3.enr != aRec || aRec2.enr == aRec {
		t.Fatal("URs of one (type, rdata) do not share one enrichment record; the test proves nothing")
	}
	if e := aRec1.Enrichment(); e.ASN != asn || e.Country != "NL" || e.HTTP.Cert == nil || txt1.Enrichment().TXTClass != TXTSPF {
		t.Fatalf("enrichment not attached: A %+v, TXT %+v", e, txt1.Enrichment())
	}
	if e := (&UR{}).Enrichment(); !reflect.DeepEqual(e, Enrichment{}) {
		t.Fatalf("an unenriched UR reads %+v, want zero values", e)
	}
	// What a UR reads of itself and of its shared record, deep-copied.
	type view struct {
		enr      *Enrichment
		val      Enrichment
		cert     websim.Cert
		ips      []netip.Addr
		category Category
		reason   CorrectReason
	}
	snap := func(u *UR) view {
		v := view{enr: u.enr, val: *u.enr, ips: slices.Clone(u.CorrespondingIPs), category: u.Category, reason: u.Reason}
		if u.enr.HTTP.Cert != nil {
			v.cert = *u.enr.HTTP.Cert
			v.cert.SANs = slices.Clone(v.cert.SANs)
		}
		return v
	}
	unchanged := func(stage string, u *UR, want view) {
		t.Helper()
		if got := snap(u); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s %s on %s changed: %+v, want %+v", stage, u.Type, u.RData, u.Server.Addr, got, want)
		}
	}

	// The analyzer appends each server's A address to that server's TXT
	// record only.
	before := map[*UR]view{}
	for _, u := range urs {
		before[u] = snap(u)
	}
	NewAnalyzer(cfg).AnalyzeParallel(urs, 1)
	for _, tc := range []struct {
		u     *UR
		extra []netip.Addr
	}{{txt1, []netip.Addr{a1}}, {txt2, []netip.Addr{a2}}, {txt3, nil}} {
		if want := append(slices.Clone(embedded), tc.extra...); !slices.Equal(tc.u.CorrespondingIPs, want) {
			t.Errorf("TXT on %s: corresponding IPs %v, want %v", tc.u.Server.Addr, tc.u.CorrespondingIPs, want)
		}
	}
	if f := memo.rdata[rdataKey{dns.TypeTXT, spf}]; !slices.Equal(f.ips, embedded) || len(f.ips) != cap(f.ips) {
		t.Errorf("the memoized TXT facts changed: %v (cap %d)", f.ips, cap(f.ips))
	}
	// txt3 had no A sibling, so it and every A record read as before.
	for _, u := range []*UR{txt3, aRec1, aRec2, aRec3} {
		unchanged("analyze", u, before[u])
	}

	// Copies classified as the benchmark classifies them leave their
	// originals and the shared records as they were.
	for _, u := range urs {
		u.Category, u.Reason = CategoryMalicious, ReasonNone
		before[u] = snap(u)
	}
	batch := make([]*UR, len(urs))
	for i, u := range urs {
		cp := *u
		cp.Category, cp.Reason = CategoryUnknown, ReasonNone
		batch[i] = &cp
	}
	correct := NewCorrectDB()
	correct.Profile("site.com").AddA(a1, asn, "NL", "")
	det := NewDeterminer(cfg, correct, NewProtectiveDB(nil))
	if sus := det.Determine(batch); len(sus) == len(batch) {
		t.Fatal("no copy was classified correct; the test proves nothing")
	}
	for _, u := range urs {
		unchanged("determine a copy", u, before[u])
	}
}

// TestAnswerMemoAnswersOnlyItsProbe pins the memo's identity rule: a
// response need not carry its question, so one answer's bytes can come back
// for two probes, and what was derived for one must not answer the other.
func TestAnswerMemoAnswersOnlyItsProbe(t *testing.T) {
	resp := &dns.Message{
		Header: dns.Header{ID: 7, Response: true, Authoritative: true},
		Answers: []dns.RR{{Name: "a.example", Class: dns.ClassINET, TTL: 300,
			Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.7")}}},
	}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var am answerMemo
	ur := &UR{Domain: "a.example", Type: dns.TypeA, RData: "192.0.2.7", TTL: 300}
	am.put(wire, resp, sweepURs, "a.example", dns.TypeA, []*UR{ur}, 0)
	wire[0], wire[1] = 0, 9 // another probe's ID: the memo keys past it
	if d := am.get(wire, sweepURs, "a.example", dns.TypeA); d == nil || len(d.recs) != 1 || d.recs[0].rdata != ur.RData {
		t.Fatalf("the probe the answer was derived for misses: %+v", d)
	}
	for _, other := range []struct {
		kind sweepKind
		name dns.Name
		qt   dns.Type
	}{{sweepURs, "b.example", dns.TypeA}, {sweepURs, "a.example", dns.TypeTXT}, {sweepCorrect, "a.example", dns.TypeA}} {
		if d := am.get(wire, other.kind, other.name, other.qt); d != nil {
			t.Errorf("the same bytes answered probe %+v with another probe's derivation", other)
		}
	}
}

// uniqueAnswerTransport is hostile input for the memos, in the style of
// poisonTransport: it rewrites every NOERROR answer so that no two probes get
// the same one. Each record's TTL and rdata are drawn from the (server, name,
// type) asked — an A record's address, a TXT record's SPF address — so no
// sweep worker's answer memo and no determine worker's rdata memo ever hits,
// and every probe adds an entry until the memo is full. The draw is a pure
// function of the probe, so the run stays deterministic.
type uniqueAnswerTransport struct {
	inner dnsio.Transport
}

func (u uniqueAnswerTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	resp, err := u.inner.Exchange(ctx, buf, server, packed, tcp)
	if err != nil {
		return resp, err
	}
	m, err := dns.Unpack(resp)
	if err != nil || m.Header.RCode != dns.RCodeSuccess || len(m.Answers) == 0 {
		return resp, nil
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%s|%d", server.Addr(), m.Question().Name, m.Question().Type)
	draw := h.Sum32()
	addr := netip.AddrFrom4([4]byte{100, 64 | byte(draw>>16)&63, byte(draw >> 8), byte(draw)})
	for i := range m.Answers {
		rr := &m.Answers[i]
		rr.TTL = 60 + draw%86400
		switch rr.Data.(type) {
		case *dns.A:
			rr.Data = &dns.A{Addr: addr}
		case *dns.TXT:
			rr.Data = dns.NewTXT("v=spf1 ip4:" + addr.String() + " -all")
		}
	}
	return m.AppendPack(buf[:0])
}

func (u uniqueAnswerTransport) Instant() bool { return true }

func (u uniqueAnswerTransport) SleepVirtual(d time.Duration) {
	u.inner.(interface{ SleepVirtual(time.Duration) }).SleepVirtual(d)
}

// TestAnswerMemoBoundedUnderUniqueAnswers serves a distinct answer on every
// probe with both memo caps and the intern table's cap lowered under the
// fixture's answer count, and the intern table's length limit between the A
// and the TXT rdata: each table must stop at its cap, the intern table must
// pass the longer rdata through, and the plain, journaled and resumed
// reports must equal the run in which no table takes an entry — the
// derivation path without memos.
func TestAnswerMemoBoundedUnderUniqueAnswers(t *testing.T) {
	defaultAnswerCap, defaultRDataCap := answerMemoCap, rdataMemoCap
	defaultInternCap, defaultInternMaxLen := internCap, internMaxLen
	defer func() {
		answerMemoCap, rdataMemoCap = defaultAnswerCap, defaultRDataCap
		internCap, internMaxLen = defaultInternCap, defaultInternMaxLen
	}()
	fixture := func() *chaosFixture {
		fx := newChaosFixture(t, 11)
		inner, err := fx.cfg.transport()
		if err != nil {
			t.Fatal(err)
		}
		fx.cfg.Transport = uniqueAnswerTransport{inner}
		return fx
	}
	run := func(cfg *Config) string {
		t.Helper()
		res, err := NewPipeline(cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(res)
	}

	answerMemoCap, rdataMemoCap, internCap = 0, 0, 0
	want := run(fixture().cfg)

	// An A record's rdata is at most 15 bytes here, a TXT record's (quoted
	// "v=spf1 ip4:… -all") at least 24.
	const limit, maxLen = 16, 16
	answerMemoCap, rdataMemoCap, internCap, internMaxLen = limit, limit, limit, maxLen

	// One sweep worker over every nameserver, then one determine memo over
	// what it collected: both must fill to the cap and no further. The
	// worker's buffers are poisoned before every exchange and after the last:
	// a key that kept the lent bytes instead of copying them reads as 0xFF.
	// (The report cannot show that: a corrupted key only misses.)
	fx := fixture()
	pt := newPoisonTransport(fx.cfg.Transport)
	fx.cfg.Transport = pt
	c := NewCollector(fx.cfg)
	w := &sweepWorker{}
	var urs []*UR
	for u := range fx.cfg.Nameservers {
		j := c.startJob(w, len(fx.cfg.OpenResolvers)+u, &fx.cfg.Nameservers[u])
		var err error
		if urs, err = c.sweepTargets(context.Background(), &j, urs); err != nil {
			t.Fatal(err)
		}
	}
	pt.poisonAll()
	if len(urs) <= 2*limit {
		t.Fatalf("the sweep collected %d records, too few to overflow a memo of %d", len(urs), limit)
	}
	if n := len(w.answers.m); n != limit {
		t.Errorf("the answer memo holds %d entries after %d distinct answers, cap %d", n, len(urs), limit)
	}
	for key, d := range w.answers.m {
		if m, err := dns.Unpack(append([]byte{0, 0}, key...)); err != nil || m.Question().Name != d.name {
			t.Fatalf("an answer memo key no longer reads as the answer it was taken from (%v): it aliases a lent buffer", err)
		}
	}
	if n := len(w.strs.m); n != limit {
		t.Errorf("the intern table holds %d entries after %d distinct rdata, cap %d", n, len(urs), limit)
	}
	passed := 0
	for _, u := range urs {
		if len(u.RData) > maxLen {
			passed++
			if _, ok := w.strs.m[u.RData]; ok {
				t.Fatalf("the intern table stored %q, longer than its limit %d", u.RData, maxLen)
			}
		}
	}
	if passed == 0 {
		t.Fatal("no rdata was longer than the intern table's limit")
	}
	memo := newDetMemo()
	for _, u := range urs {
		c.enrichOne(memo, u)
	}
	if n := len(memo.rdata); n != limit {
		t.Errorf("the rdata memo holds %d entries after %d distinct rdata, cap %d", n, len(urs), limit)
	}

	if got := run(fixture().cfg); got != want {
		t.Error("report with capped memos under unique answers differs from the report without memos")
	}
	dir := t.TempDir()
	for _, pass := range []string{"journaled", "resumed"} {
		fx := fixture()
		j, err := OpenJournal(dir, fx.cfg, JournalOptions{CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		fx.cfg.Journal = j
		got := run(fx.cfg)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if pass == "resumed" && j.ReplayedAnswered() == 0 {
			t.Fatal("the resume replayed nothing")
		}
		if got != want {
			t.Errorf("%s report with capped memos under unique answers differs from the report without memos", pass)
		}
	}

	// A live answer the client recognises from the memo journals as the
	// record a decoded one would be — empty, or answered — except that the
	// bytes of an answered one are a reference to the copy the segment
	// already holds. Over the fixture's own answers, which one sweep worker
	// receives from all six nameservers alike, and a target none of them
	// hosts, which all six answer NXDOMAIN alike, a journaled run and its
	// resume with the memos off and at their default caps must read back the
	// same records and empties, and report alike; with the memos, in fewer
	// bytes.
	journaled := func(answerCap, rdataCap int) (ReplayStats, string) {
		answerMemoCap, rdataMemoCap = answerCap, rdataCap
		dir := t.TempDir()
		var stats ReplayStats
		var report string
		for range 2 { // the journaled run, then its resume
			fx := newChaosFixture(t, 11)
			fx.cfg.Parallelism = 1
			fx.cfg.Targets = append(fx.cfg.Targets, "unhosted.example")
			j, err := OpenJournal(dir, fx.cfg, JournalOptions{CheckpointEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			fx.cfg.Journal = j
			report = run(fx.cfg)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			stats = j.ReplayStats()
		}
		return stats, report
	}
	offStats, offReport := journaled(0, 0)
	onStats, onReport := journaled(defaultAnswerCap, defaultRDataCap)
	if offStats.Records == 0 || onStats.Records != offStats.Records || onStats.Empty != offStats.Empty || onStats.Bytes >= offStats.Bytes {
		t.Errorf("the resume read %d records (%d empty) in %d bytes journaled with the memos, %d (%d empty) in %d bytes without",
			onStats.Records, onStats.Empty, onStats.Bytes, offStats.Records, offStats.Empty, offStats.Bytes)
	}
	if onReport != offReport {
		t.Error("the resumed report with the memos differs from the one without")
	}
}
