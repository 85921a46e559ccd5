package scenario

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dns"
)

// tinyWorld is shared across tests in this package (generation is the
// expensive part).
var tinyWorld *World

func world(t *testing.T) *World {
	t.Helper()
	if tinyWorld == nil {
		w, err := Generate(Tiny(), 42)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		tinyWorld = w
	}
	return tinyWorld
}

func TestGenerateDeterministicCounts(t *testing.T) {
	w := world(t)
	if len(w.Providers) != 11+w.Scale.GenericProviders {
		t.Errorf("providers = %d", len(w.Providers))
	}
	if len(w.Nameservers) == 0 {
		t.Fatal("no nameservers")
	}
	if len(w.Targets) < w.Scale.Targets {
		t.Errorf("targets = %d", len(w.Targets))
	}
	if len(w.Resolvers.Resolvers) != w.Scale.OpenResolvers {
		t.Errorf("resolvers = %d", len(w.Resolvers.Resolvers))
	}
	if w.Plants.Created == 0 || w.Plants.Created > w.Plants.Attempted {
		t.Errorf("plants: %+v", w.Plants)
	}
	if len(w.Reports) != len(w.Samples) {
		t.Errorf("reports %d != samples %d", len(w.Reports), len(w.Samples))
	}
}

// TestGenerateNegativeSeeds: a seed below -100 makes a provider's seed
// negative, which must not index before the country list.
func TestGenerateNegativeSeeds(t *testing.T) {
	for _, seed := range []int64{-101, -1000, math.MinInt64} {
		w, err := Generate(Tiny(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(w.Nameservers) == 0 || len(w.Targets) < w.Scale.Targets {
			t.Errorf("seed %d: %d nameservers, %d targets", seed, len(w.Nameservers), len(w.Targets))
		}
	}
}

func TestEveryTargetResolves(t *testing.T) {
	w := world(t)
	rec := w.Resolvers.Resolvers[1].Resolver()
	for _, target := range w.Targets {
		addrs, err := rec.LookupA(context.Background(), target)
		if err != nil || len(addrs) == 0 {
			t.Errorf("target %s does not resolve: %v %v", target, addrs, err)
		}
	}
}

func TestCaseStudyWiring(t *testing.T) {
	w := world(t)
	cs := w.Case
	if len(cs.SPFNS) != 11 {
		t.Errorf("SPF nameservers = %d, want 11 (Namecheap + CSC)", len(cs.SPFNS))
	}
	providers := map[string]bool{}
	for _, ns := range cs.SPFNS {
		providers[ns.Provider] = true
	}
	if len(providers) != 2 {
		t.Errorf("SPF providers = %v, want 2", providers)
	}
	if len(cs.SPFServers) != 3 {
		t.Fatalf("SPF servers = %d", len(cs.SPFServers))
	}
	// Three IPs in the same /24 (§5.3).
	a, b, c := cs.SPFServers[0].As4(), cs.SPFServers[1].As4(), cs.SPFServers[2].As4()
	if a[0] != b[0] || a[1] != b[1] || a[2] != b[2] || a[2] != c[2] {
		t.Errorf("SPF servers not in one /24: %v", cs.SPFServers)
	}
	// Specter's C2 is flagged by none of the 74 vendors.
	if w.Intel.IsMalicious(cs.SpecterC2) {
		t.Error("Specter C2 should be unflagged by vendors")
	}
	if !w.Intel.IsMalicious(cs.DarkIoTC2) {
		t.Error("Dark.IoT C2 should be vendor-flagged")
	}
	if len(cs.DarkIoTSamples) != 3 || len(cs.SpecterSamples) != 3 || len(cs.SPFSamples) != 6 {
		t.Errorf("sample counts: %d %d %d", len(cs.DarkIoTSamples), len(cs.SpecterSamples), len(cs.SPFSamples))
	}
}

func TestCaseStudySamplesSucceed(t *testing.T) {
	w := world(t)
	byName := map[string]bool{}
	for _, rep := range w.Reports {
		if rep.Err == nil {
			byName[rep.Sample.Name] = true
		}
	}
	for _, s := range w.Case.DarkIoTSamples {
		if !byName[s.Name] {
			t.Errorf("sample %s failed", s.Name)
		}
	}
	for _, s := range w.Case.SpecterSamples {
		if !byName[s.Name] {
			t.Errorf("sample %s failed", s.Name)
		}
	}
	for _, s := range w.Case.SPFSamples {
		if !byName[s.Name] {
			t.Errorf("sample %s failed", s.Name)
		}
	}
}

// TestFullPipelineShape is the package's end-to-end check: URHunter over the
// tiny world must reproduce the paper's qualitative results.
func TestFullPipelineShape(t *testing.T) {
	w := world(t)
	cfg := w.URHunterConfig()
	pipe := core.NewPipeline(cfg)
	res, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(res.URs) == 0 {
		t.Fatal("no URs collected")
	}
	counts := res.CategoryCounts()
	t.Logf("categories: %v (total %d, queries %d)", counts, len(res.URs), res.Queries)
	for _, cat := range []core.Category{core.CategoryCorrect, core.CategoryProtective,
		core.CategoryMalicious, core.CategoryUnknown} {
		if counts[cat] == 0 {
			t.Errorf("no URs in category %v", cat)
		}
	}

	// Suspicious set exists and the malicious share is in a plausible band
	// around the paper's 25.41%.
	if len(res.Suspicious) == 0 {
		t.Fatal("no suspicious URs")
	}
	malicious := counts[core.CategoryMalicious]
	share := float64(malicious) / float64(len(res.Suspicious))
	if share < 0.08 || share > 0.60 {
		t.Errorf("malicious share of suspicious = %.2f, out of plausible band", share)
	}

	// Table 1 consistency.
	rows := res.Table1()
	if len(rows) != 3 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	total := rows[2]
	if total.URs != len(res.Suspicious) {
		t.Errorf("table1 total URs %d != suspicious %d", total.URs, len(res.Suspicious))
	}
	if total.MaliciousURs != malicious {
		t.Errorf("table1 malicious %d != %d", total.MaliciousURs, malicious)
	}
	aRow, txtRow := rows[0], rows[1]
	if aRow.URs == 0 || txtRow.URs == 0 {
		t.Error("a record type row is empty")
	}
	// TXT malicious rate must be far below A's (Table 1: 3.08% vs 28.92%).
	aRate := float64(aRow.MaliciousURs) / float64(aRow.URs)
	txtRate := float64(txtRow.MaliciousURs) / float64(txtRow.URs)
	if txtRate >= aRate {
		t.Errorf("TXT malicious rate %.3f >= A rate %.3f", txtRate, aRate)
	}

	// Figure 2: Cloudflare must dominate total URs.
	fig2 := res.Figure2(5)
	if len(fig2) < 3 {
		t.Fatalf("figure2 providers = %d", len(fig2))
	}
	if fig2[0].Provider != "Cloudflare" {
		t.Errorf("top provider = %s, want Cloudflare", fig2[0].Provider)
	}
	if fig2[0].Total() < 2*fig2[1].Total() {
		t.Errorf("Cloudflare does not dominate: %d vs %d", fig2[0].Total(), fig2[1].Total())
	}

	// Figure 3(a): all three evidence classes present.
	f3a := res.Figure3a()
	if f3a.IntelOnly == 0 || f3a.IDSOnly == 0 || f3a.Both == 0 {
		t.Errorf("figure3a = %+v", f3a)
	}

	// Figure 3(b): the 1-2 bucket dominates.
	f3b := res.Figure3b()
	if f3b["1-2"] <= f3b["3-4"] || f3b["1-2"] <= f3b["7-11"] {
		t.Errorf("figure3b = %v", f3b)
	}

	// Figure 3(c): Trojan Activity is the top alert class.
	f3c := res.Figure3c()
	trojan := f3c["Trojan Activity"]
	for class, n := range f3c {
		if class != "Trojan Activity" && n > trojan {
			t.Errorf("class %s (%d) exceeds Trojan Activity (%d)", class, n, trojan)
		}
	}

	// Figure 3(d): Trojan is the top tag.
	f3d := res.Figure3d()
	trojanTag := f3d["Trojan"]
	for tag, n := range f3d {
		if tag != "Trojan" && n > trojanTag {
			t.Errorf("tag %s (%d) exceeds Trojan (%d)", tag, n, trojanTag)
		}
	}

	// §5.2: malicious TXT URs are overwhelmingly email-related.
	email, malTXT := res.TXTEmailShare()
	if malTXT == 0 {
		t.Error("no malicious TXT URs")
	} else if float64(email)/float64(malTXT) < 0.6 {
		t.Errorf("email share = %d/%d", email, malTXT)
	}

	// §4.2 validation: zero false negatives on delegated records.
	totalFN, falseNeg, err := pipe.FalseNegativeCheck(context.Background(), res)
	if err != nil {
		t.Fatalf("FN check: %v", err)
	}
	if totalFN == 0 {
		t.Error("FN check evaluated nothing")
	}
	if falseNeg != 0 {
		t.Errorf("false negatives = %d of %d", falseNeg, totalFN)
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper", ""} {
		if _, ok := ByName(name); !ok {
			t.Errorf("scale %q not found", name)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("bogus scale resolved")
	}
}

func TestCaseStudyURsCollected(t *testing.T) {
	w := world(t)
	cfg := w.URHunterConfig()
	pipe := core.NewPipeline(cfg)
	res, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The speedtest.net masquerading SPF must be in the malicious set.
	foundSPF := false
	for _, u := range res.Suspicious {
		if u.Domain == "speedtest.net" && u.Type == dns.TypeTXT &&
			u.Category == core.CategoryMalicious {
			foundSPF = true
			if !u.TXTClass.EmailRelated() {
				t.Errorf("SPF UR classified as %s", u.TXTClass)
			}
		}
	}
	if !foundSPF {
		t.Error("masquerading SPF UR not flagged malicious")
	}
	// Specter's ibm.com UR must be malicious via IDS evidence despite zero
	// vendor flags.
	foundSpecter := false
	for _, u := range res.Suspicious {
		if u.Domain == "ibm.com" && u.Category == core.CategoryMalicious &&
			u.Server.Provider == "ClouDNS" {
			foundSpecter = true
			if u.MaliciousByIntel {
				t.Error("Specter UR should not be intel-flagged")
			}
			if !u.MaliciousByIDS {
				t.Error("Specter UR should be IDS-flagged")
			}
		}
	}
	if !foundSpecter {
		t.Error("Specter ibm.com UR not flagged malicious")
	}
}

func TestHyperscalersSelfHost(t *testing.T) {
	w := world(t)
	// google.com must resolve, but no measured provider hosts it.
	rec := w.Resolvers.Resolvers[2].Resolver()
	addrs, err := rec.LookupA(context.Background(), "google.com")
	if err != nil || len(addrs) == 0 {
		t.Fatalf("google.com does not resolve: %v %v", addrs, err)
	}
	for _, p := range w.Providers {
		for _, hz := range p.ZonesFor("google.com") {
			if hz.Account.ID == "owner-google.com" {
				t.Errorf("google.com legitimately hosted at %s", p.Name)
			}
		}
	}
	ns := w.Registry.Delegation("google.com")
	if len(ns) != 1 || ns[0] != "ns1.google.com" {
		t.Errorf("google.com delegation = %v", ns)
	}
}

func TestPlantTXTVariety(t *testing.T) {
	w := world(t)
	// The TXT plant mix must include all three payload families somewhere in
	// the world: IP-less commands, SPF masquerades, and verification tokens.
	kinds := map[string]bool{}
	for _, p := range w.Providers {
		for _, d := range p.HostedDomains() {
			for _, hz := range p.ZonesFor(d) {
				for _, rr := range hz.Zone.Records() {
					if rr.Type() != dns.TypeTXT {
						continue
					}
					s := rr.Data.String()
					switch {
					case strings.Contains(s, "cmd="):
						kinds["command"] = true
					case strings.Contains(s, "v=spf1"):
						kinds["spf"] = true
					case strings.Contains(s, "verification="):
						kinds["verification"] = true
					case strings.Contains(s, "v=DMARC1"):
						kinds["dmarc"] = true
					case strings.Contains(s, "cfg srv="):
						kinds["config"] = true
					}
				}
			}
		}
	}
	for _, want := range []string{"command", "spf"} {
		if !kinds[want] {
			t.Errorf("no %s TXT plants in the world (got %v)", want, kinds)
		}
	}
}
