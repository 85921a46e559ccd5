// Command urwatchd is the continuous UR monitoring daemon: it re-sweeps a
// generated world on an interval, publishes each sweep as a verdict-store
// generation, and serves the verdicts three ways:
//
//   - an HTTP/JSON API (lookup by domain/IP/provider, event tail, coverage
//     and health) on -http;
//
//   - a DNSBL-style DNS zone on -dns, queryable with stock tools:
//
//     dig @127.0.0.1 -p 5354 ibm.com.urwatch.feed.urwatch.test TXT
//     dig @127.0.0.1 -p 5354 gen.feed.urwatch.test TXT
//
//   - the same zone over RFC 8484 DoH at /dns-query on the -http listener
//     (POST application/dns-message or GET ?dns=), sharing the UDP/TCP
//     front-end's rate limiter and metrics.
//
// Between generations the differ appends ur_appeared / ur_removed /
// class_changed events to the event log, served at /v1/events. /metrics
// serves Prometheus text.
//
// Usage:
//
//	urwatchd [-scale tiny] [-seed 42] [-interval 30s] [-sweeps 0]
//	         [-http 127.0.0.1:8053] [-dns 127.0.0.1:5354]
//	         [-apex feed.urwatch.test] [-rate 0] [-burst 0] [-cache 8192]
//	         [-journal dir] [-snapshot-dir dir]
//	         [-max-staleness 0] [-degraded-after 3] [-retain 8]
//	         [-xfr-allow CIDRs] [-zone-allow CIDRs] [-notify addrs]
//	         [-pprof addr]
//
// With -journal, each sweep checkpoints into dir and the next sweep replays
// answered probes instead of re-querying them. With -snapshot-dir, every
// published generation is written as a binary snapshot, and a restarted
// daemon serves the newest valid one at once while its first sweep refreshes
// it; without one it sweeps before it opens the listeners. With -sweeps N
// the scheduler stops after N successful sweeps and the daemon keeps
// serving. SIGINT or SIGTERM closes the listeners, lets in-flight answers
// finish and exits.
//
// Failed sweeps never un-publish: the last sealed generation keeps serving
// while /v1/health walks ok -> degraded (-degraded-after consecutive
// failures) -> stale (generation older than -max-staleness; 0 selects 10x
// the sweep interval, negative disables the bound), each transition printed
// as a "health: <from> -> <to>" line.
//
// -xfr-allow enables AXFR/IXFR zone transfers for the listed CIDRs: a mirror
// AXFRs once, then follows generations with IXFR deltas keyed by SOA serial
// = generation sequence, falling back to AXFR when its serial predates the
// -retain window. -notify sends RFC 1996 NOTIFY to the listed addr:port
// secondaries on every publish. -zone-allow restricts ordinary DNSBL queries
// (open when empty).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"net/netip"
	"os"
	"strings"
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
	maxStaleness  time.Duration
	degradedAfter int
	retain        int
	xfrAllow      string
	zoneAllow     string
	notify        string
	pprofAddr     string
}

// parseFlags reads the command line into a daemonConfig; a bad flag exits 2.
func parseFlags(args []string) daemonConfig {
	var cfg daemonConfig
	fs := flag.NewFlagSet("urwatchd", flag.ExitOnError)
	fs.StringVar(&cfg.scaleName, "scale", "tiny", "world scale: tiny, small, or paper")
	fs.Int64Var(&cfg.seed, "seed", 42, "world generation seed")
	fs.DurationVar(&cfg.interval, "interval", 30*time.Second, "pause between sweeps")
	fs.IntVar(&cfg.sweeps, "sweeps", 0, "stop after N successful sweeps (0 = run forever)")
	fs.StringVar(&cfg.httpAddr, "http", "127.0.0.1:8053", "HTTP/JSON API listen address (empty disables)")
	fs.StringVar(&cfg.dnsAddr, "dns", "127.0.0.1:5354", "DNSBL zone listen address (empty disables)")
	fs.StringVar(&cfg.apexStr, "apex", "feed.urwatch.test", "DNSBL zone apex")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-client queries/sec (0 = unlimited)")
	fs.Float64Var(&cfg.burst, "burst", 0, "per-client burst (0 = 2x rate)")
	fs.IntVar(&cfg.cacheCap, "cache", urwatch.DefaultCacheCap, "HTTP API lookup-body cache entries (the DNS front-ends render every answer and cache nothing)")
	fs.StringVar(&cfg.journalDir, "journal", "", "checkpoint sweeps into this directory (incremental sweeps)")
	fs.StringVar(&cfg.snapshotDir, "snapshot-dir", "", "persist generation snapshots here and cold-start from the newest on restart")
	fs.DurationVar(&cfg.maxStaleness, "max-staleness", 0, "generation age that flips health to stale (0 = 10x interval, <0 = unbounded)")
	fs.IntVar(&cfg.degradedAfter, "degraded-after", 3, "consecutive sweep failures that flip health to degraded")
	fs.IntVar(&cfg.retain, "retain", urwatch.DefaultRetainGenerations, "generations retained for IXFR deltas (an unchanged generation shares its predecessor's tables)")
	fs.StringVar(&cfg.xfrAllow, "xfr-allow", "", "CIDR allowlist for AXFR/IXFR/NOTIFY (empty disables transfers)")
	fs.StringVar(&cfg.zoneAllow, "zone-allow", "", "CIDR allowlist for DNSBL queries (empty = open)")
	fs.StringVar(&cfg.notify, "notify", "", "comma-separated addr:port secondaries to NOTIFY on publish")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address")
	fs.Parse(args)
	return cfg
}

func main() {
	cfg := parseFlags(os.Args[1:])
	if cfg.pprofAddr != "" {
		// The daemon's own API uses a dedicated mux, so the pprof handlers on
		// http.DefaultServeMux are only reachable through this listener.
		go func() {
			fmt.Fprintf(os.Stderr, "urwatchd: pprof: %v\n", http.ListenAndServe(cfg.pprofAddr, nil))
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		urwatch.AwaitSignal(ctx, os.Interrupt, syscall.SIGTERM)
		cancel()
	}()
	d, err := start(cfg, os.Stdout, nil)
	if err == nil {
		err = d.serve(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "urwatchd: %v\n", err)
		os.Exit(1)
	}
}

// daemon is a started urwatchd: its first generation restored or swept, its
// listeners bound at udp, tcp and http (a disabled one's is the zero value).
type daemon struct {
	out            io.Writer
	watcher        *urwatch.Watcher
	sweeps         int
	group          urwatch.ServeGroup
	udp, tcp, http netip.AddrPort
}

// start generates the world, restores the newest snapshot or runs the first
// sweep, and opens the listeners. Operator lines go to out. wrap, when not
// nil, wraps the sweep the watcher runs; the tests inject failures with it.
func start(cfg daemonConfig, out io.Writer, wrap func(urwatch.SweepFunc) urwatch.SweepFunc) (*daemon, error) {
	scale, ok := repro.ScaleByName(cfg.scaleName)
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scaleName)
	}
	apex, err := dns.ParseName(cfg.apexStr)
	if err != nil {
		return nil, fmt.Errorf("bad apex: %w", err)
	}
	xferACL, err := urwatch.ParseACL(cfg.xfrAllow)
	if err != nil {
		return nil, err
	}
	zoneACL, err := urwatch.ParseACL(cfg.zoneAllow)
	if err != nil {
		return nil, err
	}
	var notifyTargets []netip.AddrPort
	for _, part := range strings.Split(cfg.notify, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ap, err := netip.ParseAddrPort(part)
		if err != nil {
			return nil, fmt.Errorf("bad -notify target %q: %w", part, err)
		}
		notifyTargets = append(notifyTargets, ap)
	}
	maxStaleness := max(cfg.maxStaleness, 0) // negative: unbounded
	if cfg.maxStaleness == 0 {
		maxStaleness = 10 * cfg.interval
	}

	fmt.Fprintf(out, "generating %s world (seed %d)...\n", cfg.scaleName, cfg.seed)
	world, err := repro.GenerateWorld(scale, cfg.seed)
	if err != nil {
		return nil, err
	}

	sweep := func(ctx context.Context) (*core.Result, error) {
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
	if wrap != nil {
		sweep = wrap(sweep)
	}

	metrics := urwatch.NewMetrics()
	watcher := urwatch.NewWatcher(urwatch.WatcherConfig{
		Sweep:    sweep,
		Interval: cfg.interval,
		Staleness: &urwatch.StalenessPolicy{
			MaxStaleness:  maxStaleness,
			DegradedAfter: cfg.degradedAfter,
			Retain:        cfg.retain,
		},
		OnGeneration: func(g *urwatch.Generation, d *urwatch.GenDiff) {
			fmt.Fprintf(out, "generation %d: %d verdicts, %d events (gen %d -> %d)\n",
				g.Seq, g.Total(), len(d.Events), d.FromSeq, d.ToSeq)
			if cfg.snapshotDir != "" {
				if _, err := urwatch.SaveGeneration(cfg.snapshotDir, g); err != nil {
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
					fmt.Fprintf(out, "notify: generation %d -> %s\n", seq, target)
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
	if cfg.snapshotDir != "" {
		t0 := time.Now()
		g, path, err := urwatch.LoadLatestSnapshot(cfg.snapshotDir)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "urwatchd: snapshot restore: %v; falling back to initial sweep\n", err)
		case g != nil:
			watcher.Store().Restore(g)
			restored = true
			fmt.Fprintf(out, "restored generation %d (%d verdicts) from %s in %s\n",
				g.Seq, g.Total(), path, time.Since(t0).Round(time.Millisecond))
		}
	}
	if !restored {
		fmt.Fprintln(out, "initial sweep...")
		if _, err := watcher.SweepOnce(context.Background()); err != nil {
			return nil, fmt.Errorf("initial sweep: %w", err)
		}
	}

	var limiter *urwatch.RateLimiter
	if cfg.rate > 0 {
		if cfg.burst <= 0 {
			cfg.burst = 2 * cfg.rate
		}
		limiter = urwatch.NewRateLimiter(cfg.rate, cfg.burst, nil)
	}

	d := &daemon{out: out, watcher: watcher, sweeps: cfg.sweeps}
	// One responder backs every DNS-shaped front-end (UDP, TCP, DoH), so
	// they share the rate limiter and count into the same metrics.
	zr := &urwatch.ZoneResponder{
		Apex:    apex,
		Store:   watcher.Store(),
		Limiter: limiter,
		XferACL: xferACL,
		ZoneACL: zoneACL,
		Metrics: metrics,
	}
	if cfg.dnsAddr != "" {
		srv, err := d.group.StartDNS(zr, cfg.dnsAddr)
		if err != nil {
			return nil, err
		}
		d.udp, d.tcp = srv.UDPAddr(), srv.TCPAddr()
		fmt.Fprintf(out, "DNSBL zone %s on udp %s / tcp %s\n", apex, d.udp, d.tcp)
		if xferACL != nil {
			fmt.Fprintf(out, "zone transfers enabled for %s\n", xferACL)
		}
	}
	if cfg.httpAddr != "" {
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
		addr, err := d.group.StartHTTP(mux, cfg.httpAddr)
		if err != nil {
			return nil, err
		}
		d.http = netip.MustParseAddrPort(addr.String())
		fmt.Fprintf(out, "HTTP API on http://%s/v1/\n", addr)
		fmt.Fprintf(out, "DoH endpoint on http://%s%s\n", addr, transport.DoHPath)
	}
	return d, nil
}

// serve runs the sweep scheduler and logs health transitions until ctx is
// done, then drains the listeners.
func (d *daemon) serve(ctx context.Context) error {
	h0 := d.watcher.Health()
	fmt.Fprintf(d.out, "health: %s (generation %d, age %.1fs)\n", h0.Status, h0.Generation, h0.GenerationAgeSec)
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		d.watcher.Run(ctx, d.sweeps)
	}()
	fmt.Fprintln(d.out, "serving; ctrl-c to drain and exit")

	// The staleness machine's state changes both on events (failed sweeps,
	// publishes) and silently with the clock (age crossing -max-staleness),
	// so poll rather than hook.
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for prev := h0.Status; ctx.Err() == nil; {
		select {
		case <-ctx.Done():
		case <-t.C:
			if cur := d.watcher.Health().Status; cur != prev {
				fmt.Fprintf(d.out, "health: %s -> %s\n", prev, cur)
				prev = cur
			}
		}
	}
	<-swept

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.group.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(d.out, "drained cleanly")
	return nil
}
