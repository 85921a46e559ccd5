// Command urwatchd is the continuous UR monitoring daemon: it re-sweeps a
// generated world on an interval, publishes each sweep as a verdict-store
// generation, and serves the verdicts three ways —
//
//   - an HTTP/JSON API (lookup by domain/IP/provider, event tail, coverage
//     and health) on -http, and
//
//   - a DNSBL-style DNS zone on -dns, queryable with stock tools:
//
//     dig @127.0.0.1 -p 5354 ibm.com.urwatch.feed.urwatch.test TXT
//     dig @127.0.0.1 -p 5354 gen.feed.urwatch.test TXT
//
//   - the same zone over RFC 8484 DoH at /dns-query on the -http listener
//     (POST application/dns-message or GET ?dns=), sharing the UDP/TCP
//     front-end's rate limiter and metrics; per-transport counters appear on
//     /metrics as urwatch_dns_queries_total{transport="..."}.
//
// Between generations the differ appends ur_appeared / ur_removed /
// class_changed events to the event log, served at /v1/events.
//
// Usage:
//
//	urwatchd [-scale tiny] [-seed 42] [-interval 30s] [-sweeps 0]
//	         [-http 127.0.0.1:8053] [-dns 127.0.0.1:5354]
//	         [-apex feed.urwatch.test] [-rate 0] [-burst 0] [-cache 8192]
//	         [-journal dir] [-snapshot-dir dir] [-smoke 0]
//	         [-max-staleness 0] [-degraded-after 3] [-retain 8]
//	         [-xfr-allow CIDRs] [-zone-allow CIDRs] [-notify addrs]
//	         [-fail-sweeps 0]
//
// With -journal, each sweep checkpoints into dir and the next sweep replays
// answered probes instead of re-querying them — incremental sweeps. With
// -snapshot-dir, every published generation is written as a binary snapshot
// and a restarted daemon serves the newest valid one immediately — cold
// start in milliseconds instead of a full blocking sweep — while the first
// background sweep refreshes it; corrupt or torn snapshots are rejected at
// load and the daemon falls back to the blocking initial sweep. With
// -smoke N, the daemon self-tests: N concurrent HTTP and N DNS clients
// hammer both front-ends across the configured number of sweeps, assert no
// 5xx / REFUSED / torn generation, then the daemon drains and exits.
//
// Robustness and mirroring:
//
// Failed sweeps never un-publish — the last sealed generation keeps serving
// (stale-on-error) while /v1/health walks ok -> degraded (-degraded-after
// consecutive failures) -> stale (generation older than -max-staleness; 0
// selects 10x the sweep interval, negative disables the bound). Health
// transitions print as "health: <from> -> <to>" lines. -fail-sweeps N
// injects N consecutive sweep failures after the first success — the chaos
// hook the CI degradation smoke drives.
//
// -xfr-allow enables AXFR/IXFR zone transfers for the listed CIDRs (off when
// empty): a mirror AXFRs once, then follows generations with IXFR deltas
// keyed by SOA serial = generation sequence, falling back to AXFR when its
// serial predates the -retain window. -notify sends RFC 1996 NOTIFY to the
// listed addr:port secondaries on every publish. -zone-allow restricts
// ordinary DNSBL queries (open when empty). /metrics serves Prometheus text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"net/netip"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/transport"
	"repro/internal/urwatch"
)

// daemonConfig carries the parsed flag set.
type daemonConfig struct {
	scaleName     string
	seed          int64
	interval      time.Duration
	sweeps        int
	httpAddr      string
	dnsAddr       string
	apexStr       string
	rate, burst   float64
	cacheCap      int
	journalDir    string
	snapshotDir   string
	smoke         int
	maxStaleness  time.Duration
	degradedAfter int
	retain        int
	xfrAllow      string
	zoneAllow     string
	notify        string
	failSweeps    int
	pprofAddr     string
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.scaleName, "scale", "tiny", "world scale: tiny, small, or paper")
	flag.Int64Var(&cfg.seed, "seed", 42, "world generation seed")
	flag.DurationVar(&cfg.interval, "interval", 30*time.Second, "pause between sweeps")
	flag.IntVar(&cfg.sweeps, "sweeps", 0, "stop after N successful sweeps (0 = run forever)")
	flag.StringVar(&cfg.httpAddr, "http", "127.0.0.1:8053", "HTTP/JSON API listen address (empty disables)")
	flag.StringVar(&cfg.dnsAddr, "dns", "127.0.0.1:5354", "DNSBL zone listen address (empty disables)")
	flag.StringVar(&cfg.apexStr, "apex", "feed.urwatch.test", "DNSBL zone apex")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-client queries/sec (0 = unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-client burst (0 = 2x rate)")
	flag.IntVar(&cfg.cacheCap, "cache", urwatch.DefaultCacheCap, "HTTP API lookup-body cache entries (the DNS front-ends render every answer and cache nothing)")
	flag.StringVar(&cfg.journalDir, "journal", "", "checkpoint sweeps into this directory (incremental sweeps)")
	flag.StringVar(&cfg.snapshotDir, "snapshot-dir", "", "persist generation snapshots here and cold-start from the newest on restart")
	flag.IntVar(&cfg.smoke, "smoke", 0, "self-test with N concurrent HTTP and N DNS clients, then exit")
	flag.DurationVar(&cfg.maxStaleness, "max-staleness", 0, "generation age that flips health to stale (0 = 10x interval, <0 = unbounded)")
	flag.IntVar(&cfg.degradedAfter, "degraded-after", 3, "consecutive sweep failures that flip health to degraded")
	flag.IntVar(&cfg.retain, "retain", urwatch.DefaultRetainGenerations, "generations retained for IXFR deltas")
	flag.StringVar(&cfg.xfrAllow, "xfr-allow", "", "CIDR allowlist for AXFR/IXFR/NOTIFY (empty disables transfers)")
	flag.StringVar(&cfg.zoneAllow, "zone-allow", "", "CIDR allowlist for DNSBL queries (empty = open)")
	flag.StringVar(&cfg.notify, "notify", "", "comma-separated addr:port secondaries to NOTIFY on publish")
	flag.IntVar(&cfg.failSweeps, "fail-sweeps", 0, "inject N consecutive sweep failures after the first success (chaos hook)")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address")
	flag.Parse()

	if cfg.pprofAddr != "" {
		// The daemon's own API uses a dedicated mux, so the pprof handlers on
		// http.DefaultServeMux are only reachable through this listener.
		go func() {
			fmt.Fprintf(os.Stderr, "urwatchd: pprof: %v\n", http.ListenAndServe(cfg.pprofAddr, nil))
		}()
	}

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "urwatchd: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg daemonConfig) error {
	interval, sweeps := cfg.interval, cfg.sweeps
	httpAddr, dnsAddr := cfg.httpAddr, cfg.dnsAddr
	snapshotDir := cfg.snapshotDir

	scale, ok := repro.ScaleByName(cfg.scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q", cfg.scaleName)
	}
	apex, err := dns.ParseName(cfg.apexStr)
	if err != nil {
		return fmt.Errorf("bad apex: %w", err)
	}
	xferACL, err := urwatch.ParseACL(cfg.xfrAllow)
	if err != nil {
		return err
	}
	zoneACL, err := urwatch.ParseACL(cfg.zoneAllow)
	if err != nil {
		return err
	}
	var notifyTargets []netip.AddrPort
	for _, part := range strings.Split(cfg.notify, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ap, err := netip.ParseAddrPort(part)
		if err != nil {
			return fmt.Errorf("bad -notify target %q: %w", part, err)
		}
		notifyTargets = append(notifyTargets, ap)
	}
	maxStaleness := cfg.maxStaleness
	if maxStaleness == 0 {
		maxStaleness = 10 * interval
	} else if maxStaleness < 0 {
		maxStaleness = 0
	}

	fmt.Printf("generating %s world (seed %d)...\n", cfg.scaleName, cfg.seed)
	world, err := repro.GenerateWorld(scale, cfg.seed)
	if err != nil {
		return err
	}

	baseSweep := func(ctx context.Context) (*core.Result, error) {
		if cfg.journalDir == "" {
			return repro.NewPipeline(world).Run(ctx)
		}
		pipe, j, err := repro.NewJournaledPipeline(world, cfg.journalDir, repro.JournalOptions{})
		if err != nil {
			return nil, err
		}
		defer j.Close()
		return pipe.Run(ctx)
	}
	sweep := baseSweep
	if cfg.failSweeps > 0 {
		// Chaos hook: after the first successful sweep, fail the next N. The
		// scheduler calls sweeps sequentially, so plain variables suffice.
		var succeeded bool
		failLeft := cfg.failSweeps
		sweep = func(ctx context.Context) (*core.Result, error) {
			if succeeded && failLeft > 0 {
				failLeft--
				return nil, fmt.Errorf("injected sweep failure (%d more to come)", failLeft)
			}
			res, err := baseSweep(ctx)
			if err == nil {
				succeeded = true
			}
			return res, err
		}
	}

	metrics := urwatch.NewMetrics()
	watcher := urwatch.NewWatcher(urwatch.WatcherConfig{
		Sweep:    sweep,
		Interval: interval,
		Staleness: &urwatch.StalenessPolicy{
			SweepInterval: interval,
			MaxStaleness:  maxStaleness,
			DegradedAfter: cfg.degradedAfter,
			Retain:        cfg.retain,
		},
		OnGeneration: func(g *urwatch.Generation, d *urwatch.GenDiff) {
			fmt.Printf("generation %d: %d verdicts, %d events (gen %d -> %d)\n",
				g.Seq, g.Total(), len(d.Events), d.FromSeq, d.ToSeq)
			if snapshotDir != "" {
				if _, err := urwatch.SaveGeneration(snapshotDir, g); err != nil {
					fmt.Fprintf(os.Stderr, "urwatchd: snapshot generation %d: %v\n", g.Seq, err)
				}
			}
			for _, target := range notifyTargets {
				go func(target netip.AddrPort, seq uint64) {
					nctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					if err := dnsio.Notify(nctx, target, apex, urwatch.SerialForSeq(seq)); err != nil {
						fmt.Fprintf(os.Stderr, "urwatchd: notify %s: %v\n", target, err)
						return
					}
					metrics.CountNotify()
					fmt.Printf("notify: generation %d -> %s\n", seq, target)
				}(target, g.Seq)
			}
		},
		OnSweepError: func(err error, consecutive int) {
			fmt.Fprintf(os.Stderr, "urwatchd: sweep failed (consecutive %d): %v\n", consecutive, err)
		},
	})

	// Cold start: restore the newest valid snapshot and serve it immediately
	// — the first background sweep refreshes it. Without a restorable
	// snapshot, the first sweep runs before the listeners open, so the
	// front-ends never serve the empty generation 0 to a real client.
	restored := false
	if snapshotDir != "" {
		t0 := time.Now()
		g, path, err := urwatch.LoadLatestSnapshot(snapshotDir)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "urwatchd: snapshot restore: %v; falling back to initial sweep\n", err)
		case g != nil:
			watcher.Store().Restore(g)
			restored = true
			fmt.Printf("restored generation %d (%d verdicts) from %s in %s\n",
				g.Seq, g.Total(), path, time.Since(t0).Round(time.Millisecond))
		}
	}
	if !restored {
		fmt.Println("initial sweep...")
		if _, err := watcher.SweepOnce(context.Background()); err != nil {
			return fmt.Errorf("initial sweep: %w", err)
		}
	}

	var limiter *urwatch.RateLimiter
	if cfg.rate > 0 {
		burst := cfg.burst
		if burst <= 0 {
			burst = 2 * cfg.rate
		}
		limiter = urwatch.NewRateLimiter(cfg.rate, burst, nil)
	}

	var group urwatch.ServeGroup
	dnsTCPAddr := ""
	var zr *urwatch.ZoneResponder
	if dnsAddr != "" || httpAddr != "" {
		// One responder backs every DNS-shaped front-end (UDP, TCP, DoH), so
		// they share the rate limiter and count into the same metrics.
		zr = &urwatch.ZoneResponder{
			Apex:    apex,
			Store:   watcher.Store(),
			Limiter: limiter,
			XferACL: xferACL,
			ZoneACL: zoneACL,
			Metrics: metrics,
		}
	}
	if dnsAddr != "" {
		srv, err := group.StartDNS(zr, dnsAddr)
		if err != nil {
			return err
		}
		fmt.Printf("DNSBL zone %s on udp %s / tcp %s\n", apex, srv.UDPAddr(), srv.TCPAddr())
		if xferACL != nil {
			fmt.Printf("zone transfers enabled for %s\n", xferACL)
		}
		dnsAddr = srv.UDPAddr().String()
		dnsTCPAddr = srv.TCPAddr().String()
	}
	if httpAddr != "" {
		api := &urwatch.API{
			Store:   watcher.Store(),
			Watcher: watcher,
			Limiter: limiter,
			Cache:   urwatch.NewResponseCache(cfg.cacheCap),
			Metrics: metrics,
		}
		mux := http.NewServeMux()
		mux.Handle("/", api.Handler())
		// RFC 8484 front-end: the same zone the UDP/TCP listeners serve,
		// reachable as POST/GET /dns-query on the API listener.
		mux.Handle(transport.DoHPath, &transport.DoHHandler{
			Responder: zr,
			OnError:   func() { metrics.CountTransportError(urwatch.TransportDoH) },
		})
		addr, err := group.StartHTTP(mux, httpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("HTTP API on http://%s/v1/\n", addr)
		fmt.Printf("DoH endpoint on http://%s%s\n", addr, transport.DoHPath)
		httpAddr = addr.String()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Health transition logger: the staleness machine's state changes both on
	// events (failed sweeps, publishes) and silently with the clock (age
	// crossing -max-staleness), so poll rather than hook. The "health: A -> B"
	// lines are the CI degradation smoke's observable.
	h0 := watcher.Health()
	fmt.Printf("health: %s (generation %d, age %.1fs)\n", h0.Status, h0.Generation, h0.GenerationAgeSec)
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		prev := h0.Status
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if cur := watcher.Health().Status; cur != prev {
				fmt.Printf("health: %s -> %s\n", prev, cur)
				prev = cur
			}
		}
	}()

	watcherDone := make(chan error, 1)
	go func() { watcherDone <- watcher.Run(ctx, sweeps) }()

	var smokeErr error
	if cfg.smoke > 0 {
		smokeErr = runSmoke(ctx, watcher, httpAddr, dnsAddr, dnsTCPAddr, apex,
			xferACL.Contains(netip.MustParseAddr("127.0.0.1")), cfg.smoke, sweeps)
		cancel()
	} else {
		fmt.Println("serving; ctrl-c to drain and exit")
		urwatch.AwaitSignal(ctx, os.Interrupt, syscall.SIGTERM)
		cancel()
	}

	<-watcherDone
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	if err := group.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("drained cleanly")
	return smokeErr
}

// runSmoke hammers both front-ends with concurrent clients while the
// watcher publishes generations, asserting the serving invariants: no 5xx,
// no REFUSED, and every response's generation within the [before, after]
// window of its request — i.e. a reader sees generation N or N+1, never a
// torn in-between. After the load phase it exercises the zone-transfer path
// over TCP: when 127.0.0.1 is transfer-allowlisted it AXFRs the zone into a
// mirror and verifies an immediate IXFR reports up-to-date; otherwise it
// asserts the transfer is REFUSED.
func runSmoke(ctx context.Context, watcher *urwatch.Watcher,
	httpAddr, dnsAddr, dnsTCPAddr string, apex dns.Name, xfrAllowed bool,
	clients, sweeps int) error {

	if sweeps <= 0 {
		sweeps = 3
	}
	fmt.Printf("smoke: %d HTTP + %d DNS clients across %d sweeps\n",
		clients, clients, sweeps)

	var (
		httpReqs, dnsReqs atomic.Int64
		violations        atomic.Int64
		mu                sync.Mutex
		firstViolation    string
	)
	violate := func(format string, args ...any) {
		violations.Add(1)
		mu.Lock()
		if firstViolation == "" {
			firstViolation = fmt.Sprintf(format, args...)
		}
		mu.Unlock()
	}
	genWindow := func(before uint64, got uint64) bool {
		return got >= before && got <= watcher.Store().Current().Seq
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			if watcher.Health().Sweeps >= sweeps {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	if httpAddr != "" {
		paths := []string{"/v1/providers", "/v1/health", "/v1/coverage",
			"/v1/events?since=0&max=10", "/v1/lookup?domain=ibm.com"}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli := &http.Client{Timeout: 5 * time.Second}
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					before := watcher.Store().Current().Seq
					url := "http://" + httpAddr + paths[i%len(paths)]
					resp, err := cli.Get(url)
					if err != nil {
						violate("http client %d: %v", c, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					httpReqs.Add(1)
					if resp.StatusCode >= 500 {
						violate("http %s: status %d", url, resp.StatusCode)
						continue
					}
					var env struct {
						Generation uint64 `json:"generation"`
					}
					if json.Unmarshal(body, &env) == nil && env.Generation > 0 &&
						!genWindow(before, env.Generation) {
						violate("http %s: torn generation %d (window started at %d)",
							url, env.Generation, before)
					}
				}
			}(c)
		}
	}
	if dnsAddr != "" {
		server, err := netip.ParseAddrPort(dnsAddr)
		if err != nil {
			return fmt.Errorf("smoke: bad dns addr: %w", err)
		}
		names := []struct {
			name dns.Name
			t    dns.Type
		}{
			{"gen." + apex, dns.TypeTXT},
			{urwatch.DomainName("ibm.com", apex), dns.TypeA},
			{urwatch.DomainName("ibm.com", apex), dns.TypeTXT},
			{"unlisted.example.urwatch." + apex, dns.TypeA},
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli := dnsio.NewClient(&dnsio.NetTransport{})
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					q := names[i%len(names)]
					qctx, qcancel := context.WithTimeout(context.Background(), 5*time.Second)
					resp, err := cli.Query(qctx, server, q.name, q.t)
					qcancel()
					if err != nil {
						violate("dns client %d: %v", c, err)
						return
					}
					dnsReqs.Add(1)
					if resp.Header.RCode == dns.RCodeRefused ||
						resp.Header.RCode == dns.RCodeServFail {
						violate("dns %s %s: rcode %s", q.name, q.t, resp.Header.RCode)
					}
				}
			}(c)
		}
	}

	wg.Wait()

	if dnsTCPAddr != "" {
		if err := smokeXfr(watcher, dnsTCPAddr, apex, xfrAllowed, violate); err != nil {
			violate("xfr: %v", err)
		}
	}
	if httpAddr != "" {
		if err := smokeDoH(httpAddr, apex, violate); err != nil {
			violate("doh: %v", err)
		}
	}

	fmt.Printf("smoke: %d HTTP + %d DNS requests served across %d generations, %d violations\n",
		httpReqs.Load(), dnsReqs.Load(), watcher.Store().Current().Seq, violations.Load())
	if v := violations.Load(); v > 0 {
		return fmt.Errorf("smoke: %d violations; first: %s", v, firstViolation)
	}
	if httpAddr != "" && httpReqs.Load() == 0 {
		return fmt.Errorf("smoke: no HTTP requests completed")
	}
	if dnsAddr != "" && dnsReqs.Load() == 0 {
		return fmt.Errorf("smoke: no DNS requests completed")
	}
	return nil
}

// smokeDoH exercises the RFC 8484 front-end: the same planted names the UDP
// clients hammered, re-resolved as application/dns-message POSTs against
// /dns-query on the API listener. The answers must match what the datagram
// path serves — one responder backs both — so any divergence is a violation.
func smokeDoH(httpAddr string, apex dns.Name, violate func(string, ...any)) error {
	server, err := netip.ParseAddrPort(httpAddr)
	if err != nil {
		return fmt.Errorf("bad http addr: %w", err)
	}
	cli := dnsio.NewClient(&transport.NetDoH{})
	queries := []struct {
		name dns.Name
		t    dns.Type
	}{
		{"gen." + apex, dns.TypeTXT},
		{urwatch.DomainName("ibm.com", apex), dns.TypeA},
	}
	for _, q := range queries {
		qctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := cli.Query(qctx, server, q.name, q.t)
		cancel()
		if err != nil {
			return fmt.Errorf("%s %s: %w", q.name, q.t, err)
		}
		if resp.Header.RCode != dns.RCodeSuccess || len(resp.Answers) == 0 {
			violate("doh %s %s: rcode %s, %d answers",
				q.name, q.t, resp.Header.RCode, len(resp.Answers))
			continue
		}
		fmt.Printf("smoke: DoH %s %s -> %d answers\n", q.name, q.t, len(resp.Answers))
	}
	// The queries above ran via="doh", so the per-transport counter family on
	// /metrics must have moved; scrape it and print the line for the CI grep.
	mctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(mctx, http.MethodGet, "http://"+httpAddr+"/metrics", nil)
	if err != nil {
		return err
	}
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(mresp.Body, 1<<20))
	mresp.Body.Close()
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	var counted bool
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, `urwatch_dns_queries_total{transport="doh"}`) {
			fmt.Printf("smoke: DoH metric %s\n", line)
			if f := strings.Fields(line); len(f) == 2 && f[1] != "0" {
				counted = true
			}
		}
	}
	if !counted {
		violate("doh queries served but urwatch_dns_queries_total{transport=\"doh\"} never moved")
	}
	fmt.Println("smoke: DoH front-end ok")
	return nil
}

// smokeXfr runs the transfer phase of the smoke: a full AXFR into a mirror
// plus an up-to-date IXFR when allowed, a REFUSED assertion when not.
func smokeXfr(watcher *urwatch.Watcher, dnsTCPAddr string, apex dns.Name,
	allowed bool, violate func(string, ...any)) error {

	server, err := netip.ParseAddrPort(dnsTCPAddr)
	if err != nil {
		return fmt.Errorf("bad dns tcp addr: %w", err)
	}
	xctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := dnsio.Transfer(xctx, server, apex, dns.TypeAXFR, 0)
	if err != nil {
		return fmt.Errorf("AXFR: %w", err)
	}
	if !allowed {
		if res.RCode != dns.RCodeRefused {
			violate("AXFR from non-allowlisted client got rcode %s, want REFUSED", res.RCode)
			return nil
		}
		fmt.Println("smoke: AXFR refused (as expected)")
		return nil
	}
	if res.RCode != dns.RCodeSuccess {
		violate("AXFR rcode %s", res.RCode)
		return nil
	}
	m := urwatch.NewMirror()
	if err := m.Apply(res); err != nil {
		return fmt.Errorf("apply AXFR: %w", err)
	}
	cur := urwatch.SerialForSeq(watcher.Store().Current().Seq)
	if m.Serial() != cur {
		violate("AXFR mirrored serial %d, primary at %d", m.Serial(), cur)
	}
	fmt.Printf("smoke: AXFR mirrored serial=%d records=%d messages=%d\n",
		m.Serial(), len(res.Records), res.Messages)
	ires, err := dnsio.Transfer(xctx, server, apex, dns.TypeIXFR, m.Serial())
	if err != nil {
		return fmt.Errorf("IXFR: %w", err)
	}
	if err := m.Apply(ires); err != nil {
		return fmt.Errorf("apply IXFR: %w", err)
	}
	fmt.Printf("smoke: IXFR from serial=%d ok (%d records)\n", m.Serial(), len(ires.Records))
	return nil
}
