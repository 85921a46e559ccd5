package repro

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hosting"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(context.Background(), TinyScale(), 42)
	})
	if envErr != nil {
		t.Fatalf("NewEnv: %v", envErr)
	}
	return envVal
}

func TestAllExperimentsRun(t *testing.T) {
	env := sharedEnv(t)
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			f, err := exp.Run(context.Background(), env)
			if err != nil {
				t.Fatalf("experiment %s: %v", exp.ID, err)
			}
			if len(f.Lines) == 0 {
				t.Error("no output lines")
			}
			if out := f.Render(); !strings.Contains(out, exp.ID) {
				t.Errorf("render missing ID: %q", out)
			}
		})
	}
}

func TestExperimentByID(t *testing.T) {
	if _, ok := ExperimentByID("table1"); !ok {
		t.Error("table1 not found")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("bogus experiment found")
	}
	if len(Experiments()) != 17 {
		t.Errorf("experiments = %d, want 17 (E1-E17)", len(Experiments()))
	}
}

func TestKeyMetricsShape(t *testing.T) {
	env := sharedEnv(t)
	ctx := context.Background()

	f, err := ExpTable1(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Metrics["malicious_ur_share"]; s <= 0.05 || s >= 0.6 {
		t.Errorf("malicious UR share %.3f outside plausible band (paper 0.254)", s)
	}
	if f.Metrics["txt_malicious_rate"] >= f.Metrics["a_malicious_rate"] {
		t.Error("TXT malicious rate should be far below A (paper: 3.08% vs 28.92%)")
	}

	f, err = ExpFigure2(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["top_provider_is_cloudflare"] != 1 {
		t.Error("Cloudflare is not the top Figure 2 provider")
	}

	f, err = ExpFNRate(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["false_negatives"] != 0 {
		t.Errorf("false negatives = %v, paper reports zero", f.Metrics["false_negatives"])
	}
	if f.Metrics["evaluated"] == 0 {
		t.Error("FN check evaluated nothing")
	}

	f, err = ExpBypass(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["default_c2_reached"] != 1 {
		t.Error("UR attack did not bypass default defenses")
	}
	if f.Metrics["strict_c2_reached"] != 0 {
		t.Error("strict direct-DNS blocking did not stop the UR attack")
	}

	f, err = ExpTXTShare(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Metrics["email_share"]; s < 0.5 {
		t.Errorf("email share %.2f too low (paper 0.9095)", s)
	}

	f, err = ExpSpecter(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["specter_vendor_flags"] != 0 {
		t.Error("Specter C2 should have zero vendor flags")
	}
	if f.Metrics["specter_urs_malicious"] == 0 {
		t.Error("Specter URs not flagged malicious")
	}

	f, err = ExpSPF(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["spf_nameservers"] != 11 {
		t.Errorf("SPF nameservers = %v, want 11", f.Metrics["spf_nameservers"])
	}
	if f.Metrics["spf_high_flows"] == 0 {
		t.Error("no high-risk SPF flows")
	}

	f, err = ExpDarkIoT(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["v2023_emerdns_queries"] != 0 {
		t.Error("the 2023 Dark.IoT variant must not query EmerDNS")
	}
}

func TestPostDisclosureExperiment(t *testing.T) {
	env := sharedEnv(t)
	f, err := ExpPostDisclosure(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	// The robust §6 invariant: the provider that adopted full NS
	// verification stops serving malicious URs entirely, while the
	// ecosystem as a whole remains exploitable. (Aggregate counts between
	// the two generated worlds are noisy at small scales because the
	// policy change perturbs every later random draw.)
	if f.Metrics["tencent_pre_malicious"] == 0 {
		t.Error("pre-disclosure Tencent carried no malicious URs; experiment is vacuous")
	}
	if f.Metrics["tencent_post_malicious"] != 0 {
		t.Errorf("Tencent still serves %v malicious URs after NS verification",
			f.Metrics["tencent_post_malicious"])
	}
	if f.Metrics["post_malicious"] == 0 {
		t.Error("post-disclosure world should remain exploitable (paper: Cloudflare/Alibaba)")
	}
}

func TestSubdomainRecoveryExperiment(t *testing.T) {
	env := sharedEnv(t)
	f, err := ExpSubdomains(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["recovered"] == 0 {
		t.Fatal("no subdomains recovered from PDNS")
	}
	if f.Metrics["subdomain_suspicious"] == 0 {
		t.Error("no suspicious URs at recovered subdomains (hidden plants exist)")
	}
}

func TestMXExperiment(t *testing.T) {
	env := sharedEnv(t)
	f, err := ExpMX(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics["mx_urs"] == 0 {
		t.Error("no MX URs collected")
	}
	if f.Metrics["mx_correct"] == 0 {
		t.Error("no legitimate MX URs excluded (CDN fleets should produce them)")
	}
	if f.Metrics["mx_suspicious"] == 0 {
		t.Error("no suspicious MX URs (attacker MX plants exist)")
	}
}

func TestAblationInflatesSuspiciousSet(t *testing.T) {
	env := sharedEnv(t)
	f, err := ExpAblation(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	// Single-condition drops never shrink the suspicious set; the conditions
	// overlap (an IP caught by the IP subset is often also caught by AS or
	// cert), so small or zero deltas are legitimate results.
	for _, name := range []string{"no-IP-subset", "no-AS-subset", "no-geo-subset",
		"no-cert-subset", "no-pdns", "no-http-filter"} {
		if f.Metrics[name+"_delta"] < 0 {
			t.Errorf("%s delta = %v, suspicious set shrank", name, f.Metrics[name+"_delta"])
		}
	}
	// Dropping PDNS must surface the still-alive past-delegation URs (old
	// business page, legacy certificate) as suspicious.
	if f.Metrics["no-pdns_delta"] <= 0 {
		t.Errorf("no-pdns delta = %v, expected inflation", f.Metrics["no-pdns_delta"])
	}
	// With every condition off, the whole collected set floods in and the
	// delegated records themselves become false negatives.
	if f.Metrics["all-conditions-off_delta"] <= 0 {
		t.Errorf("all-off delta = %v", f.Metrics["all-conditions-off_delta"])
	}
	if f.Metrics["all-conditions-off_fn"] == 0 {
		t.Error("all-off should produce false negatives on delegated records")
	}
}

// TestTable2MatchesPaper pins the audited policy matrix to the published
// Table 2, row by row.
func TestTable2MatchesPaper(t *testing.T) {
	rows, err := AuditProviders(hosting.AppendixCPresets(), 7)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Table2Row{
		"Alibaba Cloud": {NSAllocation: "global-fixed", WithoutVerification: true,
			Unregistered: false, Subdomain: true, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: false, NoRetrieval: false},
		"Amazon": {NSAllocation: "random", WithoutVerification: true,
			Unregistered: true, Subdomain: true, SLD: true, ETLD: true,
			DupSingleUser: true, DupCrossUser: true, NoRetrieval: true},
		"Baidu Cloud": {NSAllocation: "global-fixed", WithoutVerification: true,
			Unregistered: false, Subdomain: false, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: false, NoRetrieval: false},
		"ClouDNS": {NSAllocation: "global-fixed", WithoutVerification: true,
			Unregistered: true, Subdomain: true, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: false, NoRetrieval: true},
		"Cloudflare": {NSAllocation: "account-fixed", WithoutVerification: true,
			Unregistered: false, Subdomain: true, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: true, NoRetrieval: false},
		"Godaddy": {NSAllocation: "global-fixed", WithoutVerification: true,
			Unregistered: false, Subdomain: true, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: false, NoRetrieval: true},
		"Tencent Cloud": {NSAllocation: "account-fixed", WithoutVerification: true,
			Unregistered: false, Subdomain: false, SLD: true, ETLD: true,
			DupSingleUser: false, DupCrossUser: true, NoRetrieval: false},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, got := range rows {
		w, ok := want[got.Provider]
		if !ok {
			t.Errorf("unexpected provider %s", got.Provider)
			continue
		}
		w.Provider = got.Provider
		if got != w {
			t.Errorf("%s:\n got  %+v\n want %+v", got.Provider, got, w)
		}
	}
	if out := RenderTable2(rows); !strings.Contains(out, "Cloudflare") {
		t.Error("render missing provider")
	}
}

func TestPostDisclosureAuditShrinksOptions(t *testing.T) {
	var post []hosting.Policy
	for _, p := range hosting.AppendixCPresets() {
		post = append(post, hosting.PostDisclosure(p, nil))
	}
	rows, err := AuditProviders(post, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Provider == "Tencent Cloud" && r.WithoutVerification {
			t.Error("post-disclosure Tencent still hosts without verification")
		}
		// Cloudflare and Alibaba remain exploitable, per the paper's re-test.
		if r.Provider == "Cloudflare" && !r.WithoutVerification {
			t.Error("post-disclosure Cloudflare should still be exploitable")
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	env := sharedEnv(t)
	res := env.Result
	for name, out := range map[string]string{
		"table1":  RenderTable1(res),
		"figure2": RenderFigure2(res, 5),
		"figure3": RenderFigure3(res),
		"summary": RenderCategorySummary(res),
	} {
		if len(out) == 0 {
			t.Errorf("%s: empty render", name)
		}
	}
	tops := TopMaliciousDomains(res, 5)
	if len(tops) == 0 {
		t.Error("no top malicious domains")
	}
	if len(tops) > 5 {
		t.Errorf("top list too long: %d", len(tops))
	}
}

func TestRenderFindingsMarkdown(t *testing.T) {
	env := sharedEnv(t)
	f, err := ExpFNRate(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	md := RenderFindingsMarkdown([]*Findings{f})
	for _, want := range []string{"# URHunter reproduction findings", "## fnrate",
		"**Paper:**", "| metric | value |", "false_negatives"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if got := RenderFindingsMarkdown(nil); !strings.HasPrefix(got, "# URHunter") {
		t.Errorf("empty findings render: %q", got)
	}
}

// TestDeterministicGeneration: the same scale and seed must produce worlds
// whose measured aggregates are identical — map-iteration nondeterminism in
// the generator would break reproducibility of every number in
// EXPERIMENTS.md.
func TestDeterministicGeneration(t *testing.T) {
	run := func() []core.Table1Row {
		w, err := GenerateWorld(TinyScale(), 1234)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunURHunter(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table1()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}

// TestSecondSeedShapeStability guards against seed-specific calibration
// luck: a different world must still show the paper's coarse shapes.
func TestSecondSeedShapeStability(t *testing.T) {
	env, err := NewEnv(context.Background(), TinyScale(), 777)
	if err != nil {
		t.Fatal(err)
	}
	rows := env.Result.Table1()
	total, aRow, txtRow := rows[2], rows[0], rows[1]
	if total.MaliciousURs == 0 || total.URs == 0 {
		t.Fatal("empty measurement")
	}
	share := float64(total.MaliciousURs) / float64(total.URs)
	if share < 0.05 || share > 0.65 {
		t.Errorf("malicious share %.2f out of band at seed 777", share)
	}
	// The TXT-vs-A rate gap needs a meaningful TXT sample; tiny worlds at
	// unlucky seeds have too few TXT URs for the comparison to be stable.
	if txtRow.URs >= 100 && aRow.URs > 0 {
		if float64(txtRow.MaliciousURs)/float64(txtRow.URs) >=
			float64(aRow.MaliciousURs)/float64(aRow.URs) {
			t.Error("TXT rate >= A rate at seed 777")
		}
	}
	fig := env.Result.Figure2(1)
	if len(fig) == 0 || fig[0].Provider != "Cloudflare" {
		t.Errorf("top provider at seed 777: %v", fig)
	}
	_, fn, err := env.Pipe.FalseNegativeCheck(context.Background(), env.Result)
	if err != nil || fn != 0 {
		t.Errorf("seed 777 FN check: %d %v", fn, err)
	}
}

// TestFalseNegativeCheckReusesProbes: the §4.2 check enriches the delegated
// records through the sweep's probe cache, so after Run it sends nothing to a
// delegated A address the correct-record sweep already probed, and it counts
// what a fresh pipeline, which probes every address itself, counts.
func TestFalseNegativeCheckReusesProbes(t *testing.T) {
	ctx := context.Background()
	w, err := GenerateWorld(TinyScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Web == nil {
		t.Fatal("the world has no web layer")
	}
	pipe := NewPipeline(w)
	res, err := pipe.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := map[netip.Addr]int64{}
	for _, target := range w.Targets {
		if p, ok := res.Correct.Lookup(target); ok {
			for addr := range p.IPs {
				before[addr] = w.Fabric.QueriesTo(addr)
			}
		}
	}
	if len(before) == 0 {
		t.Fatal("no delegated A address in the correct-record database")
	}
	total, fn, err := pipe.FalseNegativeCheck(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("the check evaluated nothing")
	}
	for addr, n := range before {
		if got := w.Fabric.QueriesTo(addr); got != n {
			t.Errorf("the check sent %d exchanges to delegated address %s", got-n, addr)
		}
	}
	freshTotal, freshFN, err := NewPipeline(w).FalseNegativeCheck(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if total != freshTotal || fn != freshFN {
		t.Errorf("after Run the check counts (%d, %d); a fresh pipeline counts (%d, %d)", total, fn, freshTotal, freshFN)
	}
}
