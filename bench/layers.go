package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/urwatch"
)

// The per-layer metrics of the traced pass. Every workload reports every
// one: all but the last four come from one suite of layer probes that is the
// same on every workload (timed public calls over this seed's world), the
// last four from the workload's own traced window. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "scenario.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "dns.pack_ns", Unit: "ns", Better: "lower"},
	{Name: "dns.unpack_ns", Unit: "ns", Better: "lower"},
	{Name: "dns.pack_allocs", Unit: "count", Better: "lower"},
	{Name: "dns.unpack_allocs", Unit: "count", Better: "lower"},

	{Name: "simnet.exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.exchange_par2_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.exchange_allocs", Unit: "count", Better: "lower"},

	{Name: "dnsio.query_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsio.query_allocs", Unit: "count", Better: "lower"},
	{Name: "dnsio.query_faulted_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsio.retries_recovered", Unit: "count", Better: "higher"},
	{Name: "dnsio.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "dnsio.failed_probes", Unit: "count", Better: "lower"},
	{Name: "dnsio.serve_raw_ns", Unit: "ns", Better: "lower"},

	{Name: "resolver.resolve_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "core.correct_ms", Unit: "ms", Better: "lower"},
	{Name: "core.nameservers_ms", Unit: "ms", Better: "lower"},
	{Name: "core.determine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.determine_ns_per_ur", Unit: "ns", Better: "lower"},
	{Name: "core.analyzer_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.gc_cycles_per_sweep", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.queries", Unit: "count", Better: "lower"},
	{Name: "core.urs", Unit: "count", Better: "higher"},
	{Name: "core.suspicious", Unit: "count", Better: "higher"},

	{Name: "core.journal_records", Unit: "count", Better: "lower"},
	{Name: "core.journal_mb", Unit: "MB", Better: "lower"},
	{Name: "core.journal_close_ms", Unit: "ms", Better: "lower"},
	{Name: "core.journal_open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "core.journal_replayed", Unit: "count", Better: "higher"},

	{Name: "urwatch.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "urwatch.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "urwatch.bytes_per_verdict", Unit: "B", Better: "lower"},
	{Name: "urwatch.verdicts", Unit: "count", Better: "higher"},
	{Name: "urwatch.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "urwatch.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "urwatch.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "urwatch.answer_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "urwatch.answer_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "urwatch.answer_render_ns", Unit: "ns", Better: "lower"},
	{Name: "urwatch.answer_render_allocs", Unit: "count", Better: "lower"},
	{Name: "urwatch.answer_nx_ns", Unit: "ns", Better: "lower"},
	{Name: "urwatch.answer_nx_allocs", Unit: "count", Better: "lower"},

	{Name: "transport.doh_handler_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.doh_handler_allocs", Unit: "count", Better: "lower"},

	{Name: "host.memprobe_ms", Unit: "ms", Better: "lower"},
	{Name: "host.refprobe_ms", Unit: "ms", Better: "lower"},

	{Name: "raw.op_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.qps", Unit: "1/s", Better: "higher"},
	{Name: "raw.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// probe times n calls of f on this goroutine inside one span and reports
// nanoseconds and heap allocations per call. Nothing else runs meanwhile, so
// the process-wide allocation counter is this loop's.
func (r *run) probe(name string, n int, f func(i int) error) (nsPer, allocsPer float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.tr.begin(name, 0, 0)
	t0 := time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = f(i)
	}
	d := time.Since(t0)
	r.tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// timed runs f once inside a span and returns its duration in milliseconds.
func (r *run) timed(name string, f func() error) (float64, error) {
	id := r.tr.begin(name, 0, 0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return ms(d), nil
}

// layerSuite measures the layers one by one over w, whose resolver caches a
// sweep has already filled. cold is that first, cold-cache sweep's result;
// genMs are the world generations timed so far.
func (r *run) layerSuite(w *repro.World, cold *core.Result, genMs []float64) error {
	ctx := context.Background()

	// --- host
	mem := newMemprobe(r.seed)
	r.set("host.memprobe_ms", mem.run(), mem.run(), mem.run())
	mem = nil
	var refs []float64
	for i := 0; i < 3; i++ {
		t, err := r.ref.run()
		if err != nil {
			return err
		}
		refs = append(refs, t)
	}
	r.set("host.refprobe_ms", refs...)

	// --- scenario, resolver: a fresh world, for caches that are still cold.
	t0 := time.Now()
	fresh, err := r.generate(0)
	if err != nil {
		return err
	}
	r.set("scenario.generate_ms", append(genMs, ms(time.Since(t0)))...)
	rec := fresh.Resolvers.Resolvers[0].Resolver()
	ns, _, err := r.probe("resolver.resolve_cold", min(200, len(fresh.Targets)), func(i int) error {
		_, err := rec.Resolve(ctx, fresh.Targets[i], dns.TypeA)
		return err
	})
	if err != nil {
		return err
	}
	r.set("resolver.resolve_cold_ns", ns)
	fresh, rec = nil, nil

	// --- core: stage spans of the cold sweep, then one warm sweep for the
	// allocation and collection books.
	st := cold.Stages
	r.set("core.correct_ms", ms(st.Correct))
	r.set("core.nameservers_ms", ms(st.Nameservers))
	r.set("core.determine_ms", ms(st.Determine))
	r.set("core.analyze_ms", ms(st.Analyze))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm, _, err := r.plainSweep(w, 0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	if countsOf(warm) != countsOf(cold) {
		r.wrong("warm sweep counts %+v differ from the cold sweep's %+v", countsOf(warm), countsOf(cold))
	}
	q := float64(warm.Queries)
	r.set("core.allocs_per_query", float64(after.Mallocs-before.Mallocs)/q)
	r.set("core.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/q)
	r.set("core.gc_cycles_per_sweep", float64(after.NumGC-before.NumGC))
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("core.queries", q)
	r.set("core.urs", float64(len(warm.URs)))
	r.set("core.suspicious", float64(len(warm.Suspicious)))

	cfg := w.URHunterConfig()
	batch := make([]*core.UR, len(warm.URs))
	for i, u := range warm.URs {
		c := *u // Determine classifies in place; work on copies
		c.Category, c.Reason = core.CategoryUnknown, core.ReasonNone
		batch[i] = &c
	}
	det := core.NewDeterminer(cfg, warm.Correct, warm.Protective)
	d, err := r.timed("core.determine", func() error {
		if got := len(det.Determine(batch)); got != len(warm.Suspicious) {
			return fmt.Errorf("%d suspicious, the sweep found %d", got, len(warm.Suspicious))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("core.determine_ns_per_ur", d*1e6/float64(len(batch)))
	batch = nil
	d, err = r.timed("core.analyzer_build", func() error { core.NewAnalyzer(cfg); return nil })
	if err != nil {
		return err
	}
	r.set("core.analyzer_build_ms", d)

	// --- journal, retry and breaker: one journaled sweep under faults and
	// its resume.
	c, err := r.chaosRep(w, 0)
	if err != nil {
		return err
	}
	r.checkChaosRep(0, c, c)
	r.set("core.journal_records", float64(c.journalRecords))
	r.set("core.journal_mb", c.journalMB)
	r.set("core.journal_close_ms", c.closeMs)
	r.set("core.journal_open_replay_ms", c.openReplayMs)
	r.set("core.journal_replayed", float64(c.replayed))
	r.set("dnsio.retries_recovered", float64(c.sweep.Coverage.RetriedRecovered))
	r.set("dnsio.breaker_trips", float64(c.sweep.Coverage.BreakerTrips))
	r.set("dnsio.failed_probes", float64(c.sweep.Coverage.Failed()))
	c = nil

	if err := r.fabricAndClient(w); err != nil {
		return err
	}
	return r.urwatchLayers(w, warm)
}

// fabricAndClient probes the simulated network and the query client under
// the collector, clean and under the chaos workload's per-endpoint faults.
func (r *run) fabricAndClient(w *repro.World) error {
	ctx := context.Background()
	servers := make([]netip.AddrPort, 0, 64)
	for _, ns := range w.Nameservers[4:min(68, len(w.Nameservers))] { // past the four special-cased ones
		servers = append(servers, netip.AddrPortFrom(ns.Addr, dnsio.DNSPort))
	}
	packed, err := dns.NewQuery(99, w.Targets[0], dns.TypeA).Pack()
	if err != nil {
		return err
	}
	exchange := func(i int) error {
		ep := simnet.Endpoint{Addr: servers[i%len(servers)].Addr(), Port: dnsio.DNSPort}
		_, err := w.Fabric.Exchange(w.CollectorAddr, ep, packed, 0)
		return err
	}
	const n = 200_000
	ns, allocs, err := r.probe("simnet.exchange", n, exchange)
	if err != nil {
		return err
	}
	r.set("simnet.exchange_ns", ns)
	r.set("simnet.exchange_allocs", allocs)

	id := r.tr.begin("simnet.exchange_par2", 0, 0)
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n && errs[g] == nil; i++ {
				errs[g] = exchange(i + g)
			}
		}(g)
	}
	wg.Wait()
	r.tr.end(id)
	if err := firstErr(errs); err != nil {
		return fmt.Errorf("simnet.exchange_par2: %w", err)
	}
	r.set("simnet.exchange_par2_ns", float64(time.Since(t0).Nanoseconds())/n)

	client := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.Fabric, Src: w.CollectorAddr})
	client.SeedIDs(r.seed)
	query := func(i int) error {
		_, err := client.Query(ctx, servers[i%len(servers)], w.Targets[i%len(w.Targets)], dns.TypeA)
		return err
	}
	ns, allocs, err = r.probe("dnsio.query", n/2, query)
	if err != nil {
		return err
	}
	r.set("dnsio.query_ns", ns)
	r.set("dnsio.query_allocs", allocs)

	for _, s := range servers {
		dnsio.SetSimFault(w.Fabric, s.Addr(), simnet.FaultProfile{LossRate: 0.10, WrongIDRate: 0.05})
	}
	defer w.Fabric.ClearFaults()
	lost := 0
	ns, _, err = r.probe("dnsio.query_faulted", n/2, func(i int) error {
		if query(i) != nil { // retries exhausted: the sweep would re-queue it
			lost++
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("dnsio.query_faulted_ns", ns)
	r.notes["faulted_queries_lost_per_100k"] = float64(lost) * 1e5 / float64(n/2)
	return nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// urwatchLayers probes the codec, the verdict store, the snapshot file, the
// answer path and the two serve entry points, in process.
func (r *run) urwatchLayers(w *repro.World, res *core.Result) error {
	var g1, g2 *urwatch.Generation
	d, err := r.timed("urwatch.seal", func() error {
		g1 = urwatch.SnapshotFromResult(res, 1, time.Unix(0, 0))
		return nil
	})
	if err != nil {
		return err
	}
	r.set("urwatch.seal_ms", d)
	r.set("urwatch.verdicts", float64(g1.Total()))
	r.set("urwatch.bytes_per_verdict", float64(g1.SizeBytes())/float64(g1.Total()))
	g2 = urwatch.SnapshotFromResult(res, 2, time.Unix(1, 0))
	store := urwatch.NewStore()
	store.Publish(g1)
	// The daemon's steady state: a generation published over one like it.
	if d, err = r.timed("urwatch.publish", func() error { store.Publish(g2); return nil }); err != nil {
		return err
	}
	r.set("urwatch.publish_ms", d)

	dir, err := r.scratch("snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var path string
	if d, err = r.timed("urwatch.snapshot_save", func() (err error) {
		path, err = urwatch.SaveGeneration(dir, g2)
		return err
	}); err != nil {
		return err
	}
	r.set("urwatch.snapshot_save_ms", d)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("urwatch.snapshot_mb", float64(info.Size())/(1<<20))
	if d, err = r.timed("urwatch.snapshot_load", func() error {
		loaded, _, err := urwatch.LoadLatestSnapshot(dir)
		if err == nil && (loaded == nil || loaded.Total() != g2.Total()) {
			err = fmt.Errorf("loaded snapshot does not hold the %d verdicts saved", g2.Total())
		}
		return err
	}); err != nil {
		return err
	}
	r.set("urwatch.snapshot_load_ms", d)

	// Answer path: the same listed names with the cache (every call after a
	// name's first is a hit), without it (every call renders), and unlisted
	// names without it (every call is the negative answer).
	keys, err := buildKeys(res, g2, 4096)
	if err != nil {
		return err
	}
	src := netip.MustParseAddr("127.0.0.1")
	decode := func(qs []query) ([]*dns.Message, error) {
		out := make([]*dns.Message, len(qs))
		for i, q := range qs {
			var err error
			if out[i], err = dns.Unpack(keys.bytes(q)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	listed, err := decode(keys.listed)
	if err != nil {
		return err
	}
	unlisted, err := decode(keys.unlisted)
	if err != nil {
		return err
	}
	cached := &urwatch.ZoneResponder{Apex: apex, Store: store, Cache: urwatch.NewResponseCache(0), Metrics: urwatch.NewMetrics()}
	bare := &urwatch.ZoneResponder{Apex: apex, Store: store, Metrics: urwatch.NewMetrics()}
	answer := func(zr *urwatch.ZoneResponder, qs []*dns.Message, want dns.RCode) func(int) error {
		return func(i int) error {
			if resp := zr.HandleQuery(src, qs[i%len(qs)]); resp.Header.RCode != want {
				return fmt.Errorf("rcode %s", resp.Header.RCode)
			}
			return nil
		}
	}
	const n = 100_000
	for _, p := range []struct {
		name string
		f    func(int) error
	}{
		{"urwatch.answer_hit", answer(cached, listed, dns.RCodeSuccess)},
		{"urwatch.answer_render", answer(bare, listed, dns.RCodeSuccess)},
		{"urwatch.answer_nx", answer(bare, unlisted, dns.RCodeNXDomain)},
	} {
		if p.name == "urwatch.answer_hit" { // fill the cache first
			if _, _, err := r.probe(p.name+"_fill", len(listed), p.f); err != nil {
				return err
			}
		}
		ns, allocs, err := r.probe(p.name, n, p.f)
		if err != nil {
			return err
		}
		r.set(p.name+"_ns", ns)
		r.set(p.name+"_allocs", allocs)
	}

	// Codec, on a fixed corpus: the feed's answers to the listed names and
	// nameservers' answers to sweep probes.
	var corpus []*dns.Message
	for i := 0; i < 64; i++ {
		corpus = append(corpus, cached.HandleQuery(src, listed[i*len(listed)/64]))
	}
	client := dnsio.NewClient(&dnsio.SimTransport{Fabric: w.Fabric, Src: w.CollectorAddr})
	client.SeedIDs(r.seed)
	for i := 0; i < 64; i++ {
		ns := w.Nameservers[4+i%(len(w.Nameservers)-4)]
		resp, err := client.Query(context.Background(), netip.AddrPortFrom(ns.Addr, dnsio.DNSPort), w.Targets[i%len(w.Targets)], dns.TypeA)
		if err != nil {
			return fmt.Errorf("codec corpus: %w", err)
		}
		corpus = append(corpus, resp)
	}
	wire := make([][]byte, len(corpus))
	ns, allocs, err := r.probe("dns.pack", n, func(i int) (err error) {
		wire[i%len(corpus)], err = corpus[i%len(corpus)].Pack()
		return err
	})
	if err != nil {
		return err
	}
	r.set("dns.pack_ns", ns)
	r.set("dns.pack_allocs", allocs)
	ns, allocs, err = r.probe("dns.unpack", n, func(i int) error {
		_, err := dns.Unpack(wire[i%len(wire)])
		return err
	})
	if err != nil {
		return err
	}
	r.set("dns.unpack_ns", ns)
	r.set("dns.unpack_allocs", allocs)

	// Serve entry points: raw datagram in, raw datagram out; and the DoH
	// handler against a recorder.
	ns, _, err = r.probe("dnsio.serve_raw", n, func(i int) error {
		if out := dnsio.ServeRaw(cached, src, keys.bytes(keys.listed[i%len(keys.listed)]), dnsio.ViaUDP); out == nil {
			return fmt.Errorf("no reply")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("dnsio.serve_raw_ns", ns)
	h := &transport.DoHHandler{Responder: cached}
	ns, allocs, err = r.probe("transport.doh_handler", n/2, func(i int) error {
		req := httptest.NewRequest(http.MethodPost, transport.DoHPath, bytes.NewReader(keys.bytes(keys.listed[i%len(keys.listed)])))
		req.Header.Set("Content-Type", transport.DoHMediaType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("transport.doh_handler_ns", ns)
	r.set("transport.doh_handler_allocs", allocs)
	return nil
}

// overheadPct is how much slower (positive) the traced samples of a
// lower-is-better quantity are than the untraced ones.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (median(traced) - median(untraced)) / median(untraced)
}

// untraced runs f with tracing off.
func (r *run) untraced(f func() error) error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	return f()
}

// tracedSweepCold: the set-up repetition, then one untraced and one traced
// repetition for the overhead, then the layer suite.
func (r *run) tracedSweepCold() error {
	var genMs, walls []float64
	var cold *core.Result
	var w *repro.World
	rep := func(i int) func() error {
		return func() error {
			t0 := time.Now()
			var err error
			if w, err = r.generate(i); err != nil {
				return err
			}
			runtime.GC()
			genMs = append(genMs, ms(time.Since(t0)))
			res, wall, err := r.plainSweep(w, i)
			if err != nil {
				return err
			}
			if cold == nil {
				cold = res
			} else if countsOf(res) != countsOf(cold) {
				r.wrong("rep %d counts %+v differ from the first sweep's %+v", i, countsOf(res), countsOf(cold))
			}
			walls = append(walls, ms(wall))
			r.attempted += res.Coverage.Attempted
			r.failed += res.Coverage.Failed()
			return nil
		}
	}
	if err := rep(0)(); err != nil {
		return err
	}
	if err := r.untraced(rep(1)); err != nil {
		return err
	}
	if err := rep(2)(); err != nil {
		return err
	}
	r.set("raw.op_ms", walls[1:]...)
	r.set("raw.qps", float64(cold.Queries)/(walls[1]/1e3), float64(cold.Queries)/(walls[2]/1e3))
	r.set("raw.tail_ms", mean(walls[1:]))
	r.set("trace_overhead_pct", overheadPct(walls[1:2], walls[2:3]))
	return r.layerSuite(w, cold, genMs)
}

// tracedSweepWarm: set-up, one untraced and one traced chaos repetition, then
// the layer suite.
func (r *run) tracedSweepWarm() error {
	t0 := time.Now()
	w, err := r.generate(0)
	if err != nil {
		return err
	}
	genMs := []float64{ms(time.Since(t0))}
	cold, _, err := r.plainSweep(w, 0)
	if err != nil {
		return err
	}
	var reps []*chaosRep
	rep := func(i int) func() error {
		return func() error {
			c, err := r.chaosRep(w, i)
			if err != nil {
				return err
			}
			reps = append(reps, c)
			r.checkChaosRep(i, c, reps[0])
			r.attempted += c.sweep.Coverage.Attempted
			return nil
		}
	}
	if err := r.untraced(rep(1)); err != nil {
		return err
	}
	if err := rep(2)(); err != nil {
		return err
	}
	q := float64(reps[0].sweep.Queries)
	r.set("raw.op_ms", reps[0].sweepMs, reps[1].sweepMs)
	r.set("raw.qps", q/(reps[0].sweepMs/1e3), q/(reps[1].sweepMs/1e3))
	r.set("raw.tail_ms", reps[0].resumeMs, reps[1].resumeMs)
	r.set("trace_overhead_pct", overheadPct([]float64{reps[0].sweepMs}, []float64{reps[1].sweepMs}))
	return r.layerSuite(w, cold, genMs)
}

// tracedWindow bounds the traced serve window: three DNS segments, the
// middle one traced.
const tracedWindow = 13 * time.Second

func (r *run) tracedServe(doh bool) error {
	e, err := r.serveSetUp(doh)
	if err != nil {
		return err
	}
	if err := e.measure(min(r.window, tracedWindow), func(i int) *tracer {
		if i%2 == 1 {
			return r.tr
		}
		return nil
	}); err != nil {
		return err
	}
	ss := e.reduce()
	e.account()
	var with, without []float64
	for _, s := range ss {
		if s.traced {
			with = append(with, 1/s.rawQPS)
		} else {
			without = append(without, 1/s.rawQPS)
		}
	}
	if len(with) == 0 {
		with = without // a window too short for a traced segment
	}
	r.set("raw.op_ms", column(ss, func(s serveSample) float64 { return s.rawP50 / 1e3 })...)
	r.set("raw.qps", column(ss, func(s serveSample) float64 { return s.rawQPS })...)
	r.set("raw.tail_ms", column(ss, func(s serveSample) float64 { return s.rawP99 / 1e3 })...)
	r.set("trace_overhead_pct", overheadPct(without, with))
	return r.layerSuite(e.w, e.res, []float64{e.genMs})
}
