package core

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	idspkg "repro/internal/ids"
	sbx "repro/internal/sandbox"
	"repro/internal/threatintel"
)

var (
	anNS      = netip.MustParseAddr("100.1.0.53")
	intelIP   = netip.MustParseAddr("66.1.0.1")
	idsIP     = netip.MustParseAddr("66.1.0.2")
	bothIP    = netip.MustParseAddr("66.1.0.3")
	cleanIP   = netip.MustParseAddr("66.1.0.4")
	lowSevIP  = netip.MustParseAddr("66.1.0.5")
	victimSrc = netip.MustParseAddr("10.0.0.9")
)

func analyzerConfig() *Config {
	intel := threatintel.NewAggregator([]string{"V1", "V2"})
	v1, _ := intel.Vendor("V1")
	v1.Flag(intelIP, threatintel.TagTrojan)
	v1.Flag(bothIP, threatintel.TagC2)

	engine := idspkg.NewEngine(idspkg.DefaultRules()...)
	reports := []*sbx.Report{
		{
			Flows: []sbx.Flow{
				{Proto: sbx.ProtoTCP, Src: victimSrc, Dst: idsIP, DstPort: 443,
					Payload: "trojan-beacon x", Answered: true},
				{Proto: sbx.ProtoTCP, Src: victimSrc, Dst: bothIP, DstPort: 443,
					Payload: "c2-checkin y", Answered: true},
				{Proto: sbx.ProtoTCP, Src: victimSrc, Dst: lowSevIP, DstPort: 80,
					Payload: "connectivity-check", Answered: true},
			},
		},
	}
	return &Config{Intel: intel, IDS: engine, SandboxReports: reports}
}

func susA(ip netip.Addr) *UR {
	return &UR{
		Server: &NameserverInfo{Addr: anNS, Host: "ns1.h.test", Provider: "H"},
		Domain: "site.com", Type: dns.TypeA, RData: ip.String(),
		CorrespondingIPs: []netip.Addr{ip},
	}
}

func TestAnalyzeEvidencePaths(t *testing.T) {
	cfg := analyzerConfig()
	a := NewAnalyzer(cfg)
	urs := []*UR{susA(intelIP), susA(idsIP), susA(bothIP), susA(cleanIP), susA(lowSevIP)}
	a.Analyze(urs)

	if urs[0].Category != CategoryMalicious || !urs[0].MaliciousByIntel || urs[0].MaliciousByIDS {
		t.Errorf("intel-only UR: %+v", urs[0])
	}
	if urs[1].Category != CategoryMalicious || urs[1].MaliciousByIntel || !urs[1].MaliciousByIDS {
		t.Errorf("ids-only UR: %+v", urs[1])
	}
	if urs[2].Category != CategoryMalicious || !urs[2].MaliciousByIntel || !urs[2].MaliciousByIDS {
		t.Errorf("both UR: %+v", urs[2])
	}
	if urs[3].Category != CategoryUnknown {
		t.Errorf("clean UR: %v", urs[3].Category)
	}
	// Low-severity (connectivity check) evidence must NOT mark malicious.
	if urs[4].Category != CategoryUnknown {
		t.Errorf("low-severity UR: %v", urs[4].Category)
	}
}

func TestAnalyzeTXTCorrespondence(t *testing.T) {
	cfg := analyzerConfig()
	a := NewAnalyzer(cfg)
	// TXT with no IP on the same NS+domain as a malicious A record.
	txt := &UR{
		Server: &NameserverInfo{Addr: anNS, Host: "ns1.h.test", Provider: "H"},
		Domain: "site.com", Type: dns.TypeTXT, RData: `"cmd=deadbeef"`,
	}
	aRec := susA(bothIP)
	a.Analyze([]*UR{aRec, txt})
	if len(txt.CorrespondingIPs) != 1 || txt.CorrespondingIPs[0] != bothIP {
		t.Fatalf("correspondence not attached: %v", txt.CorrespondingIPs)
	}
	if txt.Category != CategoryMalicious {
		t.Errorf("TXT category = %v", txt.Category)
	}

	// TXT on a DIFFERENT domain must not inherit.
	lone := &UR{
		Server: &NameserverInfo{Addr: anNS, Host: "ns1.h.test", Provider: "H"},
		Domain: "other.com", Type: dns.TypeTXT, RData: `"cmd=deadbeef"`,
	}
	a2 := NewAnalyzer(cfg)
	a2.Analyze([]*UR{susA(bothIP), lone})
	if len(lone.CorrespondingIPs) != 0 || lone.Category != CategoryUnknown {
		t.Errorf("lone TXT: %v %v", lone.CorrespondingIPs, lone.Category)
	}
}

func TestAnalyzeSkipsClassified(t *testing.T) {
	cfg := analyzerConfig()
	a := NewAnalyzer(cfg)
	u := susA(bothIP)
	u.Category = CategoryCorrect
	a.Analyze([]*UR{u})
	if u.Category != CategoryCorrect {
		t.Errorf("already-classified UR relabeled: %v", u.Category)
	}
}

func TestAnalyzerAccessors(t *testing.T) {
	cfg := analyzerConfig()
	a := NewAnalyzer(cfg)
	if len(a.Alerts()) == 0 {
		t.Error("no alerts recorded")
	}
	ids := a.IDSFlaggedIPs()
	want := map[netip.Addr]bool{idsIP: true, bothIP: true}
	if len(ids) != 2 {
		t.Fatalf("IDS IPs = %v", ids)
	}
	for _, ip := range ids {
		if !want[ip] {
			t.Errorf("unexpected IDS IP %v", ip)
		}
	}
}

func TestReportAggregation(t *testing.T) {
	cfg := analyzerConfig()
	a := NewAnalyzer(cfg)
	urs := []*UR{susA(intelIP), susA(idsIP), susA(bothIP), susA(cleanIP)}
	txt := &UR{
		Server: &NameserverInfo{Addr: anNS, Host: "ns1.h.test", Provider: "H"},
		Domain: "mail.com", Type: dns.TypeTXT,
		RData:            `"v=spf1 ip4:66.1.0.3 -all"`,
		CorrespondingIPs: []netip.Addr{bothIP},
		enr:              &Enrichment{TXTClass: TXTSPF},
	}
	urs = append(urs, txt)
	a.Analyze(urs)
	res := &Result{URs: urs, Suspicious: urs, Analyzer: a}

	rows := res.Table1()
	total := rows[2]
	if total.URs != 5 || total.MaliciousURs != 4 {
		t.Errorf("table1 total: %+v", total)
	}
	if rows[0].URs != 4 || rows[1].URs != 1 {
		t.Errorf("per-type: %+v %+v", rows[0], rows[1])
	}
	if total.Domains != 2 || total.MaliciousDomains != 2 {
		t.Errorf("domains: %+v", total)
	}
	if total.IPs != 4 || total.MaliciousIPs != 3 {
		t.Errorf("IPs: %+v", total)
	}

	f3a := res.Figure3a()
	if f3a.IntelOnly != 1 || f3a.IDSOnly != 1 || f3a.Both != 1 {
		t.Errorf("figure3a: %+v", f3a)
	}
	f3b := res.Figure3b()
	if f3b["1-2"] != 2 { // intelIP and bothIP each flagged by one vendor
		t.Errorf("figure3b: %v", f3b)
	}
	f3c := res.Figure3c()
	if f3c[idspkg.ClassTrojan] != 1 || f3c[idspkg.ClassC2] != 1 {
		t.Errorf("figure3c: %v", f3c)
	}
	f3d := res.Figure3d()
	if f3d[threatintel.TagTrojan] != 1 || f3d[threatintel.TagC2] != 1 {
		t.Errorf("figure3d: %v", f3d)
	}
	email, mal := res.TXTEmailShare()
	if email != 1 || mal != 1 {
		t.Errorf("TXT share: %d/%d", email, mal)
	}
	f2 := res.Figure2(10)
	if len(f2) != 1 || f2[0].Provider != "H" || f2[0].Malicious != 4 || f2[0].Unknown != 1 {
		t.Errorf("figure2: %+v", f2)
	}
	counts := res.CategoryCounts()
	if counts[CategoryMalicious] != 4 || counts[CategoryUnknown] != 1 {
		t.Errorf("counts: %v", counts)
	}
}

func TestURKeyUniqueness(t *testing.T) {
	a := susA(intelIP)
	b := susA(intelIP)
	if a.Key() != b.Key() {
		t.Error("identical URs have different keys")
	}
	c := susA(idsIP)
	if a.Key() == c.Key() {
		t.Error("different rdata shares a key")
	}
	d := susA(intelIP)
	d.Server.Addr = netip.MustParseAddr("100.1.0.99")
	if a.Key() == d.Key() {
		t.Error("different server shares a key (§5.1 identity)")
	}
}
