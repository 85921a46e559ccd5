package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md E1–E14) and measures the substrate costs underneath
// them. Benchmarks run at the tiny scale so `go test -bench=.` completes in
// seconds; `cmd/experiments -scale small|paper` produces the full-size runs
// recorded in EXPERIMENTS.md.

import (
	"context"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/hosting"
	"repro/internal/sandbox"
	"repro/internal/simnet"
	"repro/internal/urwatch"
)

var (
	benchOnce sync.Once
	benchEnv  *Env
	benchErr  error
)

func benchSetup(b *testing.B) *Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = NewEnv(context.Background(), TinyScale(), 7)
	})
	if benchErr != nil {
		b.Fatalf("env: %v", benchErr)
	}
	return benchEnv
}

// BenchmarkWorldGeneration measures standing up the whole simulated
// Internet (providers, delegations, attacker campaign, sandbox corpus).
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := GenerateWorld(TinyScale(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = w
	}
}

// BenchmarkTable1Pipeline regenerates Table 1: the full URHunter pipeline —
// correct/protective collection, the nameserver sweep, determination, and
// malicious-behaviour analysis.
func BenchmarkTable1Pipeline(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = NewPipeline(env.World).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rows := res.Table1()
	b.ReportMetric(float64(rows[2].URs), "suspicious-urs")
	b.ReportMetric(float64(res.Queries), "dns-queries")
	b.ReportMetric(100*ratio(rows[2].MaliciousURs, rows[2].URs), "malicious-%")
	b.ReportMetric(float64(res.Queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFigure2VendorClassification regenerates Figure 2 from a
// classified result.
func BenchmarkFigure2VendorClassification(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(env.Result.Figure2(5)) == 0 {
			b.Fatal("empty figure2")
		}
	}
}

// BenchmarkFigure3Analyses regenerates the four panels of Figure 3.
func BenchmarkFigure3Analyses(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Result.Figure3a()
		_ = env.Result.Figure3b()
		_ = env.Result.Figure3c()
		_ = env.Result.Figure3d()
	}
	b.StopTimer()
	f3a := env.Result.Figure3a()
	b.ReportMetric(float64(f3a.Total()), "malicious-ips")
}

// BenchmarkTXTShare regenerates the §5.2 email-record statistic.
func BenchmarkTXTShare(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	var email, mal int
	for i := 0; i < b.N; i++ {
		email, mal = env.Result.TXTEmailShare()
	}
	b.StopTimer()
	if mal > 0 {
		b.ReportMetric(100*float64(email)/float64(mal), "email-%")
	}
}

// BenchmarkTable2ProviderAudit regenerates Table 2: the Appendix C policy
// audit across the seven providers.
func BenchmarkTable2ProviderAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AuditProviders(hosting.AppendixCPresets(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkCaseStudySandbox re-runs the §5.3 malware corpus (Dark.IoT,
// Specter, and the SPF families) through the sandbox.
func BenchmarkCaseStudySandbox(b *testing.B) {
	env := benchSetup(b)
	w := env.World
	samples := append(append(append([]*sandbox.Sample{}, w.Case.DarkIoTSamples...),
		w.Case.SpecterSamples...), w.Case.SPFSamples...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			rep := w.Sandbox.Run(s)
			if len(rep.Flows) == 0 {
				b.Fatal("no flows")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(samples)), "samples")
}

// BenchmarkFalseNegativeCheck regenerates the §4.2 validation.
func BenchmarkFalseNegativeCheck(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	var fn int
	for i := 0; i < b.N; i++ {
		var err error
		_, fn, err = env.Pipe.FalseNegativeCheck(context.Background(), env.Result)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fn), "false-negatives")
}

// BenchmarkDefenseBypass regenerates the §3 threat-model evaluation.
func BenchmarkDefenseBypass(b *testing.B) {
	env := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := ExpBypass(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		if f.Metrics["default_c2_reached"] != 1 {
			b.Fatal("bypass failed")
		}
	}
}

// BenchmarkDeterminerConditions is the E14 ablation bench: the exclusion
// stage over the collected UR set with all conditions on vs off.
func BenchmarkDeterminerConditions(b *testing.B) {
	env := benchSetup(b)
	urs := env.Result.URs
	cfg := env.World.URHunterConfig()

	run := func(b *testing.B, mut func(*core.Determiner)) {
		for i := 0; i < b.N; i++ {
			det := core.NewDeterminer(cfg, env.Result.Correct, env.Result.Protective)
			if mut != nil {
				mut(det)
			}
			// classify mutates; work on copies.
			batch := make([]*core.UR, len(urs))
			for j, u := range urs {
				c := *u
				c.Category = core.CategoryUnknown
				c.Reason = core.ReasonNone
				batch[j] = &c
			}
			_ = det.Determine(batch)
		}
	}
	b.Run("all-conditions", func(b *testing.B) { run(b, nil) })
	b.Run("no-pdns", func(b *testing.B) {
		run(b, func(d *core.Determiner) { d.UsePDNS = false })
	})
	b.Run("subset-only", func(b *testing.B) {
		run(b, func(d *core.Determiner) { d.UsePDNS = false; d.UseHTTPFilter = false })
	})
}

// BenchmarkDetermineParallel measures the sharded §4.2 classification pass —
// per-shard memo caches over interned strings — at GOMAXPROCS workers.
// classify mutates, so each iteration re-classifies fresh copies.
func BenchmarkDetermineParallel(b *testing.B) {
	env := benchSetup(b)
	cfg := env.World.URHunterConfig()
	urs := env.Result.URs
	workers := runtime.GOMAXPROCS(0)
	det := core.NewDeterminer(cfg, env.Result.Correct, env.Result.Protective)
	copies := make([]core.UR, len(urs))
	batch := make([]*core.UR, len(urs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, u := range urs {
			copies[j] = *u
			copies[j].Category, copies[j].Reason = core.CategoryUnknown, core.ReasonNone
			batch[j] = &copies[j]
		}
		_ = det.DetermineParallel(batch, workers)
	}
	b.ReportMetric(float64(len(urs))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkAnalyzeParallel measures the fanned-out §4.3 labeling pass over
// the suspicious set. The labels land back in the same deterministic state
// the shared env held, so later benches read an unchanged Result.
func BenchmarkAnalyzeParallel(b *testing.B) {
	env := benchSetup(b)
	cfg := env.World.URHunterConfig()
	workers := runtime.GOMAXPROCS(0)
	suspicious := env.Result.Suspicious
	analyzer := core.NewAnalyzer(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range suspicious {
			u.Category = core.CategoryUnknown
			u.MaliciousByIntel, u.MaliciousByIDS = false, false
		}
		analyzer.AnalyzeParallel(suspicious, workers)
	}
	b.ReportMetric(float64(len(suspicious))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkServeVerdicts measures the URWatch DNSBL front-end: one sealed
// generation of real pipeline verdicts hammered from all procs with the
// serving query mix (listed A/TXT, reversed-IP, generation marker, unlisted
// NXDOMAIN). serve_qps and serve_p99_ms are the CI-gated feed SLOs.
func BenchmarkServeVerdicts(b *testing.B) {
	env := benchSetup(b)
	store := urwatch.NewStore()
	store.Publish(urwatch.SnapshotFromResult(env.Result, 1, time.Unix(0, 0)))
	if store.Current().Total() == 0 {
		b.Fatal("empty generation")
	}
	const apex = dns.Name("feed.test")
	zr := &urwatch.ZoneResponder{Apex: apex, Store: store}

	var listedDomain dns.Name
	var listedIP netip.Addr
	for _, u := range env.Result.URs {
		if u.Type == dns.TypeA && len(u.CorrespondingIPs) > 0 {
			listedDomain, listedIP = u.Domain, u.CorrespondingIPs[0]
			break
		}
	}
	if listedDomain == "" {
		b.Fatal("no A-record UR in the bench world")
	}
	revName, ok := urwatch.ReverseIPName(listedIP, apex)
	if !ok {
		b.Fatalf("unreversible IP %s", listedIP)
	}
	queries := []*dns.Message{
		dns.NewQuery(1, urwatch.DomainName(listedDomain, apex), dns.TypeA),
		dns.NewQuery(2, urwatch.DomainName(listedDomain, apex), dns.TypeTXT),
		dns.NewQuery(3, revName, dns.TypeA),
		dns.NewQuery(4, "gen."+apex, dns.TypeTXT),
		dns.NewQuery(5, urwatch.DomainName("unlisted.example", apex), dns.TypeA),
	}
	hist := urwatch.NewLatencyHistogram(100_000) // 100ms ceiling
	src := netip.MustParseAddr("10.7.7.7")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i int
		for pb.Next() {
			q := queries[i%len(queries)]
			i++
			t0 := time.Now()
			resp := zr.HandleQuery(src, q)
			hist.Observe(time.Since(t0))
			if resp.Header.RCode == dns.RCodeRefused || resp.Header.RCode == dns.RCodeServFail {
				b.Fatalf("dropped verdict: rcode %s", resp.Header.RCode)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "serve_qps")
	b.ReportMetric(float64(hist.Quantile(0.99).Nanoseconds())/1e6, "serve_p99_ms")
}

// BenchmarkSnapshotColdStart measures the restart path end to end: one
// sealed generation of real pipeline verdicts is written as a binary
// snapshot once, and each iteration loads it from disk, validates it, and
// swaps it into a fresh store — exactly what `urwatchd -snapshot-dir` does
// before opening its listeners. coldstart_ms is the CI-gated restart SLO;
// bytes_per_verdict is the flat layout's retained footprint.
func BenchmarkSnapshotColdStart(b *testing.B) {
	env := benchSetup(b)
	g := urwatch.SnapshotFromResult(env.Result, 1, time.Unix(0, 0))
	if g.Total() == 0 {
		b.Fatal("empty generation")
	}
	dir := b.TempDir()
	path, err := urwatch.SaveGeneration(dir, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := urwatch.LoadSnapshotFile(path)
		if err != nil {
			b.Fatal(err)
		}
		store := urwatch.NewStore()
		store.Restore(loaded)
		if cur := store.Current(); cur.Seq != 1 || cur.Total() != g.Total() {
			b.Fatalf("restored seq=%d total=%d", cur.Seq, cur.Total())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "coldstart_ms")
	b.ReportMetric(float64(g.SizeBytes())/float64(g.Total()), "bytes_per_verdict")
	b.ReportMetric(float64(g.Total()), "verdicts")
}

// --- substrate microbenches ----------------------------------------------

// BenchmarkDNSPackUnpack measures the wire codec on a realistic referral
// response.
func BenchmarkDNSPackUnpack(b *testing.B) {
	m := dns.NewQuery(1, "www.example.com", dns.TypeA).Reply()
	m.Answers = append(m.Answers,
		dns.MustParseRR("www.example.com 300 IN CNAME example.com"),
		dns.MustParseRR("example.com 300 IN A 192.0.2.10"))
	m.Authority = append(m.Authority,
		dns.MustParseRR("example.com 86400 IN NS ns1.hosting.test"),
		dns.MustParseRR("example.com 86400 IN NS ns2.hosting.test"))
	m.Additional = append(m.Additional,
		dns.MustParseRR("ns1.hosting.test 86400 IN A 198.51.100.1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dns.Unpack(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorSweep measures the §4.1 nameserver sweep alone.
func BenchmarkCollectorSweep(b *testing.B) {
	env := benchSetup(b)
	cfg := env.World.URHunterConfig()
	b.ResetTimer()
	var urs []*core.UR
	var queries int64
	for i := 0; i < b.N; i++ {
		col := core.NewCollector(cfg)
		var err error
		urs, err = col.CollectURs(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		queries = col.Queries()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(urs)), "urs")
	b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkFabricExchangeParallel drives raw packed queries through the
// simnet fabric from all procs at once — the contention ceiling underneath
// a paper-scale sweep (36M exchanges), isolating the sharded accounting
// path from codec and collector costs.
func BenchmarkFabricExchangeParallel(b *testing.B) {
	env := benchSetup(b)
	w := env.World
	ns := w.Nameservers[0]
	q := dns.NewQuery(99, w.Targets[0], dns.TypeA)
	packed, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	ep := simnet.Endpoint{Addr: ns.Addr, Port: 53}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := w.Fabric.Exchange(w.CollectorAddr, ep, packed, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClientQueryParallel measures the full client query path —
// pooled pack buffers, atomic ID generation, validation — with one shared
// Client hammered from all procs, as the sweep workers do.
func BenchmarkClientQueryParallel(b *testing.B) {
	env := benchSetup(b)
	w := env.World
	client := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.Fabric, Src: w.CollectorAddr})
	servers := make([]netip.AddrPort, len(w.Nameservers))
	for i, ns := range w.Nameservers {
		servers[i] = netip.AddrPortFrom(ns.Addr, 53)
	}
	target := w.Targets[0]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i int
		for pb.Next() {
			srv := servers[i%len(servers)]
			i++
			if _, err := client.Query(context.Background(), srv, target, dns.TypeA); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecursiveResolution measures full iterative resolution through
// the simulated hierarchy (cold cache each iteration).
func BenchmarkRecursiveResolution(b *testing.B) {
	env := benchSetup(b)
	targets := env.World.Targets
	rec := env.World.Resolvers.Resolvers[0].Resolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := targets[i%len(targets)]
		if _, err := rec.Resolve(context.Background(), name, dns.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}
