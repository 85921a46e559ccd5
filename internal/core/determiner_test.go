package core

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/websim"
)

var detNow = time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)

func detConfig() (*Config, *CorrectDB, *ProtectiveDB) {
	cfg := &Config{PDNS: pdns.NewStore(), Now: detNow}
	correct := NewCorrectDB()
	prof := correct.Profile("site.com")
	prof.IPs[netip.MustParseAddr("93.0.0.10")] = true
	prof.ASNs[ipam.ASN(64500)] = true
	prof.Countries["US"] = true
	prof.Countries["DE"] = true
	prof.Countries["JP"] = true
	prof.CertFPs["cafecafe"] = true
	prof.TXTs[`"v=spf1 ip4:93.0.0.10 -all"`] = true
	protective := NewProtectiveDB([]NameserverInfo{{Addr: netip.MustParseAddr("100.1.0.53")}})
	protective.Add(netip.MustParseAddr("100.1.0.53"), dns.TypeA, "100.1.0.200")
	return cfg, correct, protective
}

func aUR(server, rdata string) *UR {
	return &UR{
		Server: &NameserverInfo{Addr: netip.MustParseAddr(server), Host: "ns1.h.test", Provider: "H"},
		Domain: "site.com", Type: dns.TypeA, RData: rdata,
	}
}

func TestDetermineProtective(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.53", "100.1.0.200")
	d.classifyMemo(newDetMemo(), u)
	if u.Category != CategoryProtective || u.Reason != ReasonProtective {
		t.Errorf("got %v / %v", u.Category, u.Reason)
	}
	// Same rdata on a different server is NOT protective.
	u2 := aUR("100.1.0.54", "100.1.0.200")
	d.classifyMemo(newDetMemo(), u2)
	if u2.Category == CategoryProtective {
		t.Error("protective matched wrong server")
	}
}

func TestDetermineIPSubset(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "93.0.0.10")
	d.classifyMemo(newDetMemo(), u)
	if u.Category != CategoryCorrect || u.Reason != ReasonIPSubset {
		t.Errorf("got %v / %v", u.Category, u.Reason)
	}
}

func TestDetermineASSubset(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "93.0.0.99") // different IP, same AS
	u.enr = &Enrichment{ASN: 64500}
	d.classifyMemo(newDetMemo(), u)
	if u.Reason != ReasonASSubset {
		t.Errorf("reason = %v", u.Reason)
	}
}

func TestDetermineGeoSubsetNeedsDistributedProfile(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "93.0.0.99")
	u.enr = &Enrichment{Country: "US"}
	d.classifyMemo(newDetMemo(), u)
	if u.Reason != ReasonGeoSubset {
		t.Errorf("reason = %v (profile spans 3 countries)", u.Reason)
	}
	// Single-country profile: the geo condition must not fire.
	prof := correct.Profile("solo.com")
	prof.Countries["US"] = true
	u2 := &UR{Server: u.Server, Domain: "solo.com", Type: dns.TypeA,
		RData: "93.0.0.99", enr: &Enrichment{Country: "US"}}
	d.classifyMemo(newDetMemo(), u2)
	if u2.Category == CategoryCorrect {
		t.Error("geo condition fired on single-country profile")
	}
}

func TestDetermineCertSubset(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "93.0.0.99")
	u.enr = &Enrichment{HTTP: websim.ProbeResult{Cert: &websim.Cert{Fingerprint: "cafecafe"}}}
	d.classifyMemo(newDetMemo(), u)
	if u.Reason != ReasonCertSubset {
		t.Errorf("reason = %v", u.Reason)
	}
}

func TestDeterminePDNSWindow(t *testing.T) {
	cfg, correct, prot := detConfig()
	cfg.PDNS.Observe("site.com", dns.TypeA, "93.0.0.50", detNow.AddDate(-3, 0, 0))
	cfg.PDNS.Observe("site.com", dns.TypeA, "93.0.0.60", detNow.AddDate(-8, 0, 0)) // too old
	d := NewDeterminer(cfg, correct, prot)

	u := aUR("100.1.0.54", "93.0.0.50")
	d.classifyMemo(newDetMemo(), u)
	if u.Reason != ReasonPDNS {
		t.Errorf("in-window reason = %v", u.Reason)
	}
	u2 := aUR("100.1.0.54", "93.0.0.60")
	d.classifyMemo(newDetMemo(), u2)
	if u2.Category == CategoryCorrect {
		t.Error("out-of-window PDNS record excluded")
	}
}

func TestDetermineHTTPKeywords(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "93.0.0.70")
	u.enr = &Enrichment{HTTP: websim.ProbeResult{Reachable: true, StatusCode: 200,
		Body: "This domain is parked free"}}
	d.classifyMemo(newDetMemo(), u)
	if u.Reason != ReasonParked {
		t.Errorf("reason = %v", u.Reason)
	}
	u2 := aUR("100.1.0.54", "93.0.0.71")
	u2.enr = &Enrichment{HTTP: websim.ProbeResult{Reachable: true, StatusCode: 302,
		Body: "Redirecting you to https://x"}}
	d.classifyMemo(newDetMemo(), u2)
	if u2.Reason != ReasonRedirect {
		t.Errorf("reason = %v", u2.Reason)
	}
}

func TestDetermineSuspiciousFallthrough(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	u := aUR("100.1.0.54", "66.6.6.6")
	u.enr = &Enrichment{HTTP: websim.ProbeResult{Reachable: true, StatusCode: 403, Body: "403"}}
	sus := d.Determine([]*UR{u})
	if len(sus) != 1 || u.Category != CategoryUnknown {
		t.Errorf("suspicious = %d, category = %v", len(sus), u.Category)
	}
}

func TestDetermineTXT(t *testing.T) {
	cfg, correct, prot := detConfig()
	cfg.PDNS.Observe("site.com", dns.TypeTXT, `"old-verification=abc"`, detNow.AddDate(-2, 0, 0))
	d := NewDeterminer(cfg, correct, prot)

	match := &UR{Server: aUR("100.1.0.54", "").Server, Domain: "site.com",
		Type: dns.TypeTXT, RData: `"v=spf1 ip4:93.0.0.10 -all"`}
	d.classifyMemo(newDetMemo(), match)
	if match.Reason != ReasonTXTMatch {
		t.Errorf("reason = %v", match.Reason)
	}
	hist := &UR{Server: match.Server, Domain: "site.com",
		Type: dns.TypeTXT, RData: `"old-verification=abc"`}
	d.classifyMemo(newDetMemo(), hist)
	if hist.Reason != ReasonPDNS {
		t.Errorf("reason = %v", hist.Reason)
	}
	evil := &UR{Server: match.Server, Domain: "site.com",
		Type: dns.TypeTXT, RData: `"v=spf1 ip4:66.6.6.6 -all"`}
	d.classifyMemo(newDetMemo(), evil)
	if evil.Category != CategoryUnknown {
		t.Errorf("category = %v", evil.Category)
	}
}

func TestAblationTogglesDisableConditions(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	d.UseIPSubset = false
	u := aUR("100.1.0.54", "93.0.0.10") // would match IP subset
	d.classifyMemo(newDetMemo(), u)
	if u.Reason == ReasonIPSubset {
		t.Error("disabled IP condition fired")
	}
	d2 := NewDeterminer(cfg, correct, prot)
	d2.UseHTTPFilter = false
	u2 := aUR("100.1.0.54", "93.0.0.70")
	u2.enr = &Enrichment{HTTP: websim.ProbeResult{Reachable: true, Body: "parked"}}
	d2.classifyMemo(newDetMemo(), u2)
	if u2.Category == CategoryCorrect {
		t.Error("disabled HTTP filter fired")
	}
}

func TestClassifyTXT(t *testing.T) {
	cases := map[string]TXTCategory{
		`"v=spf1 ip4:1.2.3.4 -all"`:      TXTSPF,
		`"v=DMARC1; p=reject"`:           TXTDMARC,
		`"k=rsa; v=DKIM1; p=MIGf..."`:    TXTDKIM,
		`"google-site-verification=xyz"`: TXTVerification,
		`"cmd=deadbeef"`:                 TXTOther,
		`"random text"`:                  TXTOther,
		`"xx-domain-verification=abc"`:   TXTVerification,
	}
	for rdata, want := range cases {
		if got := ClassifyTXT(rdata); got != want {
			t.Errorf("ClassifyTXT(%s) = %v, want %v", rdata, got, want)
		}
	}
	if !TXTSPF.EmailRelated() || !TXTDMARC.EmailRelated() {
		t.Error("SPF/DMARC should be email-related")
	}
	if TXTDKIM.EmailRelated() || TXTOther.EmailRelated() {
		t.Error("DKIM/other should not be email-related")
	}
}

func TestExtractIPs(t *testing.T) {
	ips := extractIPs(`"v=spf1 ip4:93.0.0.1 ip4:93.0.0.2 ip4:93.0.0.1 -all"`)
	if len(ips) != 2 {
		t.Errorf("ips = %v (dedup expected)", ips)
	}
	if got := extractIPs(`"cmd=deadbeef no ips here"`); len(got) != 0 {
		t.Errorf("ips = %v", got)
	}
	if got := extractIPs(`"srv at 300.300.300.300"`); len(got) != 0 {
		t.Errorf("invalid quad parsed: %v", got)
	}
	if got := extractIPs(`"rua=mailto:a@93.0.0.9"`); len(got) != 1 {
		t.Errorf("embedded IP missed: %v", got)
	}
}

func TestCorrectOtherTypes(t *testing.T) {
	cfg, correct, prot := detConfig()
	prof := correct.Profile("site.com")
	prof.AddOther(dns.TypeMX, "10 mail.site.com.")
	cfg.PDNS.Observe("site.com", dns.TypeMX, "10 old-mail.site.com.", detNow.AddDate(-2, 0, 0))
	d := NewDeterminer(cfg, correct, prot)

	match := &UR{Server: aUR("100.1.0.54", "").Server, Domain: "site.com",
		Type: dns.TypeMX, RData: "10 mail.site.com."}
	d.classifyMemo(newDetMemo(), match)
	if match.Category != CategoryCorrect {
		t.Errorf("profile-matched MX: %v", match.Category)
	}
	hist := &UR{Server: match.Server, Domain: "site.com",
		Type: dns.TypeMX, RData: "10 old-mail.site.com."}
	d.classifyMemo(newDetMemo(), hist)
	if hist.Reason != ReasonPDNS {
		t.Errorf("historical MX reason: %v", hist.Reason)
	}
	evil := &UR{Server: match.Server, Domain: "site.com",
		Type: dns.TypeMX, RData: "10 relay.bulk-mail.biz."}
	d.classifyMemo(newDetMemo(), evil)
	if evil.Category != CategoryUnknown {
		t.Errorf("attacker MX: %v", evil.Category)
	}
	if !prof.HasOther(dns.TypeMX, "10 mail.site.com.") {
		t.Error("HasOther false for stored record")
	}
	if prof.HasOther(dns.TypeTXT, "10 mail.site.com.") {
		t.Error("HasOther matched wrong type")
	}
}

func TestCategoryStrings(t *testing.T) {
	cases := map[Category]string{
		CategoryUnknown: "unknown", CategoryCorrect: "correct",
		CategoryProtective: "protective", CategoryMalicious: "malicious",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if Category(42).String() == "" {
		t.Error("unknown category renders empty")
	}
}
