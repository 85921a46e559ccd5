package core

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/pdns"
	"repro/internal/simnet"
	"repro/internal/threatintel"
	transportpkg "repro/internal/transport"
	"repro/internal/websim"

	idspkg "repro/internal/ids"
	sbx "repro/internal/sandbox"
)

// Config wires URHunter to the world under measurement.
type Config struct {
	Fabric *simnet.Fabric
	IPDB   *ipam.DB
	Web    *websim.World

	// SrcAddr is the measurement vantage point.
	SrcAddr netip.Addr

	// Targets are the measured domains (the top-2K Tranco sites, plus the
	// case-study FQDNs under them).
	Targets []dns.Name
	// Nameservers are the measured provider servers (≥50 hosted top-1M
	// domains in the paper's selection).
	Nameservers []NameserverInfo
	// OpenResolvers are the worldwide vantage points for correct-record
	// collection.
	OpenResolvers []netip.Addr

	// DelegatedNS reports the current delegation of a domain, used to skip
	// exactly-delegated (domain, nameserver) pairs during collection.
	DelegatedNS func(domain dns.Name) []dns.Name

	// PDNS is the historical-delegation store (may be nil).
	PDNS *pdns.Store
	// Now anchors the six-year PDNS window.
	Now time.Time

	// Seed makes every randomized choice the collector itself introduces
	// (currently the protective-record canary name) a pure function of the
	// configuration, so two runs over the same world issue the same queries.
	Seed int64

	// Intel and IDS supply the §4.3 evidence; SandboxReports carries the
	// malware traffic the IDS inspects.
	Intel          *threatintel.Aggregator
	IDS            *idspkg.Engine
	SandboxReports []*sbx.Report

	// Parallelism bounds the collection worker pool. Zero or negative
	// selects runtime.GOMAXPROCS(0), i.e. one worker per available core.
	Parallelism int

	// DetermineWorkers bounds the overlapped pipeline's streaming
	// classification pool (§4.2/§4.3 per-record work). Zero or negative
	// inherits Parallelism's resolution. Any setting produces byte-identical
	// reports; this only tunes how many cores the determination tail uses.
	DetermineWorkers int

	// QueryTypes defaults to A and TXT, the paper's two sweeps.
	QueryTypes []dns.Type

	// PoliteInterval is the per-server minimum query spacing a real-world
	// run of this plan would honour (the ethics appendix commits to one
	// query per server every ~130 seconds on average). The simulation does
	// not sleep; the collector keeps the books so PoliteScanEstimate can
	// report the polite wall-clock. Zero selects the paper's 130 s.
	PoliteInterval time.Duration

	// Journal, when non-nil, checkpoints the sweep: workers append every
	// answered probe and failure-book entry to per-worker segment files,
	// and a journal opened over a prior (interrupted) run's directory
	// replays that state so already-answered probes are never re-queried.
	// See OpenJournal.
	Journal *Journal

	// Transport overrides the client transport. Nil selects the simulated
	// transport named by TransportKind; tests and real-network runs
	// substitute their own.
	Transport dnsio.Transport

	// TransportKind selects the wire transport for sweep exchanges when
	// Transport is nil: "" or "udp" (plain datagrams with TC fallback),
	// "dot", or "doh". The encrypted sim transports route through the same
	// fabric endpoints as plain UDP — identical chaos draws, identical
	// verdicts — and differ only in virtual-clock accounting, so the
	// transport is deliberately excluded from PlanHash. Journals still
	// record it (manifest "transport") and refuse cross-transport resume
	// and merge, because mixing timing models would corrupt coverage
	// accounting.
	TransportKind string

	// Watchdog tunes the per-worker stall watchdog. Nil selects the default
	// policy: active only over transports that can actually block — the
	// in-memory fabric completes synchronously and cannot stall a worker.
	Watchdog *WatchdogConfig

	// Shard, when non-nil, makes this config one worker's slice of a larger
	// plan; see ShardConfig. A whole-plan run leaves it nil.
	Shard *Shard
}

func (c *Config) politeInterval() time.Duration {
	if c.PoliteInterval <= 0 {
		return 130 * time.Second
	}
	return c.PoliteInterval
}

func (c *Config) queryTypes() []dns.Type {
	if len(c.QueryTypes) == 0 {
		return []dns.Type{dns.TypeA, dns.TypeTXT}
	}
	return c.QueryTypes
}

func (c *Config) parallelism() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

func (c *Config) determineWorkers() int {
	if c.DetermineWorkers <= 0 {
		return c.parallelism()
	}
	return c.DetermineWorkers
}

// queryShards and probeShards shard the collector's two shared books so
// sweep workers on different servers/IPs never contend on one lock.
// Powers of two; the shard index is a mask away from the address hash.
const (
	queryShards = 32
	probeShards = 32
)

// addrShard hashes an address onto [0, n). n must be a power of two.
func addrShard(addr netip.Addr, n uint32) uint32 {
	a := addr.As16()
	h := uint32(2166136261)
	for _, b := range a[8:] {
		h = (h ^ uint32(b)) * 16777619
	}
	return h & (n - 1)
}

// queryShard is one slice of the per-server query accounting.
type queryShard struct {
	mu sync.Mutex
	n  map[netip.Addr]int64
}

// probeEntry is a singleflight slot for one IP's web probe: the first
// requester fills res and closes done; everyone else blocks on done instead
// of issuing a duplicate probe.
type probeEntry struct {
	done chan struct{}
	res  websim.ProbeResult
}

// probeShard is one slice of the probe cache.
type probeShard struct {
	mu sync.Mutex
	m  map[netip.Addr]*probeEntry
}

// Collector implements §4.1: response collection.
type Collector struct {
	cfg    *Config
	client *dnsio.Client
	// err is the sticky construction error (an unknown TransportKind).
	err error

	queries   atomic.Int64
	perServer [queryShards]queryShard
	probes    [probeShards]probeShard
	// cov is the sharded coverage book: per-server attempted/answered tallies
	// plus the failure records feeding the end-of-sweep re-queue pass.
	cov [covShards]covShard

	// probeFn indirects websim.World.Probe so tests can count or stub the
	// expensive web fetch; nil when the config carries no web world.
	probeFn func(src, dst netip.Addr) websim.ProbeResult

	// journal is the optional checkpoint store. Opened over a prior run's
	// directory it also carries the replay index sweep workers consult before
	// querying a probe; see sweepJob.probe.
	journal *Journal

	// canary is cfg.CanaryName(), formatted once.
	canary dns.Name

	// in interns UR identity strings (rdata) so a sweep holds one canonical
	// instance of each distinct value; see intern.go.
	in *interner

	// deleg memoizes the per-target delegated-host set (the ancestor walk
	// over cfg.DelegatedNS), built once on first use instead of copying
	// delegation slices on every (server, target) probe.
	delegOnce sync.Once
	deleg     map[dns.Name]map[dns.Name]bool

	// wd is the stall watchdog; nil when the transport cannot stall.
	wd *watchdog
}

// transport resolves the client transport: the configured override, else the
// simulated transport TransportKind names. An unknown kind is an error, which
// NewCollector carries and every sweep entry point returns before any probe.
func (c *Config) transport() (dnsio.Transport, error) {
	if c.Transport != nil {
		return c.Transport, nil
	}
	kind, err := transportpkg.ParseKind(c.TransportKind)
	if err != nil {
		return nil, err
	}
	return transportpkg.NewSim(kind, c.Fabric, c.SrcAddr)
}

// NewCollector builds a collector over the configured fabric. A config that
// names no usable transport still yields a collector — its books read empty
// and its sweeps return the construction error without touching the client.
func NewCollector(cfg *Config) *Collector {
	transport, err := cfg.transport()
	client := dnsio.NewClient(transport)
	client.Retries = 1
	client.SeedIDs(0x5eed)
	// Backoff jitter follows the config seed so two runs over the same world
	// book identical virtual wall-clock even under chaos.
	client.Backoff.JitterSeed = uint64(cfg.Seed)
	c := &Collector{cfg: cfg, client: client, err: err, journal: cfg.Journal, canary: cfg.CanaryName(), in: newInterner()}
	for i := range c.perServer {
		c.perServer[i].n = make(map[netip.Addr]int64)
	}
	for i := range c.probes {
		c.probes[i].m = make(map[netip.Addr]*probeEntry)
	}
	for i := range c.cov {
		c.cov[i].per = make(map[netip.Addr]*serverCov)
	}
	if cfg.Web != nil {
		c.probeFn = cfg.Web.Probe
	}
	// The watchdog only matters over transports that can block a worker;
	// the fabric is synchronous, so by default it stays off there (Force
	// overrides, for tests). The overlapped pipeline runs the correct sweep
	// ([0, P) slots) concurrently with the fused nameserver sweep ([P, 2P)),
	// and each has its own re-queue spare (2P and 2P+1), hence 2P+2 slots.
	if err == nil && (!dnsio.IsInstant(transport) || (cfg.Watchdog != nil && cfg.Watchdog.Force)) {
		c.wd = newWatchdog(2*cfg.parallelism()+1, c.probeBudget(), cfg.Watchdog)
	}
	return c
}

// probeBudget estimates the worst-case virtual-clock budget of one probe:
// every attempt's timeout plus the maximum backoff between attempts. The
// watchdog's stall deadline is a multiple of this.
func (c *Collector) probeBudget() time.Duration {
	attempts := c.client.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	per := c.client.Timeout
	if per <= 0 {
		per = 3 * time.Second
	}
	budget := time.Duration(attempts) * per
	if c.client.Backoff.Max > 0 {
		budget += time.Duration(attempts-1) * c.client.Backoff.Max
	}
	return budget
}

// newSegment opens a journal segment for one worker, or returns nil when
// journaling is off.
func (c *Collector) newSegment() (*segmentWriter, error) {
	if c.journal == nil {
		return nil, nil
	}
	return c.journal.acquireSegment()
}

// releaseSegment flushes and parks a worker's segment writer at sweep end;
// nil-safe for unjournaled sweeps. Flush errors only shorten the journal
// tail (those probes re-query on resume), so they don't fail the sweep.
func (c *Collector) releaseSegment(seg *segmentWriter) {
	if seg != nil {
		_ = c.journal.releaseSegment(seg)
	}
}

// sweepWorker is what one pool goroutine owns for a whole sweep: its journal
// segment and watchdog slot, the scratch every answer — live or, on a resumed
// run, replayed from the index — is decoded into, and the buffer its jobs
// shuffle their target order in.
type sweepWorker struct {
	slot    *stallSlot
	seg     *segmentWriter
	replay  *replayIndex
	scratch dnsio.Scratch
	order   []int32
}

// sweepJob is a worker's pass over one server unit. Its counters and failure
// list are booked once, when the job ends.
type sweepJob struct {
	c      *Collector
	w      *sweepWorker
	ns     NameserverInfo
	server netip.AddrPort
	// unit is the server's unit in the full plan, what the journal names the
	// job's probes by; nq is |qtypes|, a slot's stride per target.
	unit, nq int
	// base is the unit's first replay id, -1 when nothing can be replayed.
	base int

	issued, attempted, answered, recovered int64
	fails                                  []probeFailure
}

// startJob opens the job for the config's server unit u (open resolvers,
// then nameservers).
func (c *Collector) startJob(w *sweepWorker, u int, ns NameserverInfo) sweepJob {
	j := sweepJob{
		c: c, w: w, ns: ns, server: netip.AddrPortFrom(ns.Addr, dnsio.DNSPort),
		unit: c.cfg.firstUnit() + u, nq: len(c.cfg.queryTypes()), base: -1,
	}
	if w.replay != nil {
		j.base = w.replay.unitBase(u)
	}
	return j
}

// book files the job's query count, coverage tallies and failures.
func (j *sweepJob) book() {
	j.c.addQueries(j.ns.Addr, j.issued)
	j.c.bookSweep(j.ns.Addr, j.attempted, j.answered, j.recovered, j.fails)
}

// fail files one failed probe on the job's list.
func (j *sweepJob) fail(kind sweepKind, pos probePos, name dns.Name, qt dns.Type, class dnsio.FailClass) {
	j.fails = append(j.fails, probeFailure{ns: j.ns, domain: name, qtype: qt, class: class, sweep: kind, pos: pos})
}

// probe settles one planned probe — target position t (the canary's is
// len(Targets)), query-type position qi — and returns its response, or nil
// when it failed and now sits on j.fails, or was replayed as an answer with
// nothing in it. A non-nil error is fatal to the sweep (cancellation,
// journal write failure).
//
// On a resumed run the journal is asked first. An answered probe is booked
// answered — one that had also failed books a recovery — and, unless it was
// journaled empty, decoded into the worker's scratch to take the caller's
// live-answer path. A failed probe is filed as the live failure was, without
// journaling it again. A CRC-clean answer that does not decode is neither
// trusted nor skipped: the probe is queried again. The returned message lives
// in the worker's scratch (see probeQuery) and is only valid until the
// worker's next probe.
func (j *sweepJob) probe(ctx context.Context, kind sweepKind, t int, name dns.Name, qi int, qt dns.Type) (*dns.Message, error) {
	w := j.w
	pos := probePos{j.unit, t*j.nq + qi}
	if j.base >= 0 {
		id := j.base + pos.slot
		class, failed := w.replay.failed(id)
		if wire, ok := w.replay.answer(id); ok {
			var resp *dns.Message
			var err error
			if wire != nil {
				resp, err = w.scratch.Decode(wire)
			}
			if err == nil {
				j.attempted++
				j.answered++
				if failed {
					j.recovered++
				}
				return resp, nil
			}
		} else if failed {
			j.attempted++
			j.fail(kind, pos, name, qt, class)
			return nil, nil
		}
	}
	// Cancellation is checked on the live path only (a replayed probe is a
	// sub-microsecond memory read), and through Done, an atomic load: Err takes
	// the context's mutex, which the two overlapped pools share.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	j.attempted++
	j.issued++
	resp, wire, class, err := j.c.probeQuery(ctx, w.slot, &w.scratch, j.server, name, qt)
	if err != nil {
		j.fail(kind, pos, name, qt, class)
		if w.seg != nil {
			return nil, w.seg.failure(pos, class)
		}
		return nil, nil
	}
	j.answered++
	if w.seg != nil {
		if jerr := w.seg.answer(pos, resp, wire); jerr != nil {
			return nil, jerr
		}
	}
	return resp, nil
}

// sweepPool runs job once per server on the collection worker pool and
// returns the first error: the collector's own construction error, a
// worker's, else the context's — a cancellation that lands between jobs
// stops the pool without any job seeing it, and the sweep is still
// incomplete. Worker i arms watchdog slot slotBase+i. kinds names the sweep
// kinds this pool covers, for the journal to release its replay state once
// the last of them is through.
//
// Workers claim servers in list order, one at a time, until the list is
// exhausted, the context is cancelled, a worker hits a fatal error, or — on a
// shard — the claimed unit lies at or past the yield cursor. unit0 is
// servers[0]'s unit position in the config's plan (open resolvers first, then
// nameservers), and job is handed each server's; the cursor only moves down,
// so the first yielded unit a worker claims ends its run.
func (c *Collector) sweepPool(ctx context.Context, slotBase int, kinds []sweepKind, unit0 int, servers []NameserverInfo, job func(w *sweepWorker, unit int, ns NameserverInfo) error) error {
	if c.err != nil {
		return c.err
	}
	replay, err := c.journal.replayFor(c.cfg)
	if err != nil {
		return err
	}
	defer c.journal.replayDone(kinds...)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var stop atomic.Bool
	var next atomic.Int64 // the first unclaimed position in servers

	for i := 0; i < c.cfg.parallelism(); i++ {
		wg.Add(1)
		go func(slot *stallSlot) {
			defer wg.Done()
			w := &sweepWorker{slot: slot, replay: replay}
			var err error
			if w.seg, err = c.newSegment(); w.seg != nil {
				defer c.releaseSegment(w.seg)
			}
			for err == nil && !stop.Load() && ctx.Err() == nil {
				pos := int(next.Add(1)) - 1
				if pos >= len(servers) || !c.cfg.Shard.owns(unit0+pos) {
					break
				}
				if err = job(w, unit0+pos, servers[pos]); err == nil {
					c.cfg.Shard.unitDone()
				}
			}
			if err != nil {
				stop.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c.wd.slot(slotBase + i))
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// probeQuery issues one probe under the stall watchdog (when active). The
// watchdog cancels a probe stuck past the deadline; a transport that
// ignores even cancellation is abandoned after a grace period so the worker
// keeps the sweep moving either way.
//
// The answered response's wire bytes are returned alongside the decoded
// message so a journaled sweep can record exactly what the server sent
// without re-packing it. Both live in the caller's scratch and are valid until
// its next probe: whatever outlasts a probe is copied out of them (the journal
// copies the wire, URs intern their rdata, the databases take values). Under
// the watchdog the query runs on a goroutine that may be abandoned mid-flight,
// so there the result is the query's own and the scratch is never lent.
func (c *Collector) probeQuery(ctx context.Context, slot *stallSlot, scratch *dnsio.Scratch, server netip.AddrPort, name dns.Name, qt dns.Type) (*dns.Message, []byte, dnsio.FailClass, error) {
	if c.wd == nil || slot == nil {
		resp, wire, err := c.client.QueryInto(ctx, scratch, server, name, qt)
		return resp, wire, dnsio.Classify(err), err
	}
	pctx, cancel := slot.arm(ctx)
	defer cancel()
	type qres struct {
		resp *dns.Message
		wire []byte
		err  error
	}
	ch := make(chan qres, 1)
	go func() {
		resp, wire, err := c.client.QueryWire(pctx, server, name, qt)
		ch <- qres{resp, wire, err}
	}()
	finish := func(r qres) (*dns.Message, []byte, dnsio.FailClass, error) {
		stalled := slot.disarm()
		if stalled && r.err != nil {
			return nil, nil, dnsio.FailStalled, r.err
		}
		return r.resp, r.wire, dnsio.Classify(r.err), r.err
	}
	select {
	case r := <-ch:
		return finish(r)
	case <-pctx.Done():
		// Cancelled — by the watchdog (stall) or the parent context. Give
		// the in-flight query a grace period to unwind, then walk away.
		grace := time.NewTimer(c.wd.grace)
		defer grace.Stop()
		select {
		case r := <-ch:
			return finish(r)
		case <-grace.C:
			stalled := slot.disarm()
			err := errStallAbandoned(fmt.Sprintf("probe %s %s/%d", server, name, uint16(qt)), pctx.Err())
			class := dnsio.FailStalled
			if !stalled {
				class = dnsio.Classify(pctx.Err())
			}
			return nil, nil, class, err
		}
	}
}

// Queries returns the number of DNS queries issued so far.
func (c *Collector) Queries() int64 {
	return c.queries.Load()
}

// addQueries books n queries against one server. Workers call it once per
// (server, sweep) batch rather than once per query, so the shard lock is
// touched a handful of times per server instead of millions of times per
// run.
func (c *Collector) addQueries(server netip.Addr, n int64) {
	if n == 0 {
		return
	}
	c.queries.Add(n)
	s := &c.perServer[addrShard(server, queryShards)]
	s.mu.Lock()
	s.n[server] += n
	s.mu.Unlock()
}

// PoliteScanEstimate reports the wall-clock a real-world run of the executed
// query plan would take under the ethics appendix's per-server pacing: the
// busiest server's query count times the polite interval (servers are
// queried in parallel, so the busiest one gates the scan).
func (c *Collector) PoliteScanEstimate() time.Duration {
	var max int64
	for i := range c.perServer {
		s := &c.perServer[i]
		s.mu.Lock()
		for _, n := range s.n {
			if n > max {
				max = n
			}
		}
		s.mu.Unlock()
	}
	return time.Duration(max) * c.cfg.politeInterval()
}

// requeueOn re-runs one sweep's failed probes after the main pass — probes
// that failed while a server was flapping, lossy, or breaker-blocked get one
// more chance now that the sweep pressure is off and breakers may have
// recovered — in canonical order so the extra query plan is deterministic. It
// runs on the caller goroutine with an explicit watchdog slot, so the
// pipeline's two concurrent re-queue tails (correct sweep, fused nameserver
// sweep) never share one. Recovered probes are booked and handed to
// onAnswer; probes that fail again are refiled with their new failure class
// (still-open breakers fail fast without touching the fabric).
func (c *Collector) requeueOn(ctx context.Context, kind sweepKind, slot *stallSlot, onAnswer func(f probeFailure, resp *dns.Message)) error {
	fails := c.drainFailures(kind)
	if len(fails) == 0 {
		return nil
	}
	seg, segErr := c.newSegment()
	if segErr != nil {
		for _, f := range fails {
			c.refile(f)
		}
		return segErr
	}
	if seg != nil {
		defer c.releaseSegment(seg)
	}
	sortFailures(fails)
	var scratch dnsio.Scratch
	var lastAddr netip.Addr
	var issued int64
	flush := func() {
		if issued > 0 {
			c.addQueries(lastAddr, issued)
			issued = 0
		}
	}
	defer flush()
	for i, f := range fails {
		if err := ctx.Err(); err != nil {
			for _, rest := range fails[i:] {
				c.refile(rest)
			}
			return err
		}
		if f.ns.Addr != lastAddr {
			flush()
			lastAddr = f.ns.Addr
		}
		issued++
		server := netip.AddrPortFrom(f.ns.Addr, dnsio.DNSPort)
		resp, wire, class, err := c.probeQuery(ctx, slot, &scratch, server, f.domain, f.qtype)
		if err != nil {
			f.class = class
			c.refile(f)
			if seg != nil {
				if jerr := seg.failure(f.pos, class); jerr != nil {
					for _, rest := range fails[i+1:] {
						c.refile(rest)
					}
					return jerr
				}
			}
			continue
		}
		c.bookRecovered(f.ns.Addr)
		if seg != nil {
			if jerr := seg.answer(f.pos, resp, wire); jerr != nil {
				for _, rest := range fails[i+1:] {
					c.refile(rest)
				}
				return jerr
			}
		}
		onAnswer(f, resp)
	}
	return nil
}

// sortURs puts a UR set into its canonical order: server address, then
// domain, type, rdata, and TTL. Collection order depends on worker
// scheduling; the canonical order does not.
func sortURs(urs []*UR) {
	sort.Slice(urs, func(i, j int) bool {
		a, b := urs[i], urs[j]
		if cmp := a.Server.Addr.Compare(b.Server.Addr); cmp != 0 {
			return cmp < 0
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.RData != b.RData {
			return a.RData < b.RData
		}
		return a.TTL < b.TTL
	})
}

// sweepTargets is a nameserver job's UR phase: every non-delegated target,
// every query type, appended to out.
func (c *Collector) sweepTargets(ctx context.Context, j *sweepJob, out []*UR) ([]*UR, error) {
	// Ethics appendix: queries are issued in randomized order, never
	// walking the target list top-down against any single server.
	j.w.order = c.shuffledTargets(j.w.order, j.ns.Addr)
	for _, t := range j.w.order {
		target := c.cfg.Targets[t]
		if c.isExactlyDelegated(target, j.ns) {
			continue
		}
		for qi, qt := range c.cfg.queryTypes() {
			resp, err := j.probe(ctx, sweepURs, int(t), target, qi, qt)
			if err != nil {
				return out, err
			}
			if resp != nil {
				out = c.ursFromResponse(j.ns, target, qt, resp, out)
			}
		}
	}
	return out, nil
}

// ursFromResponse extracts this probe's undelegated records from a NOERROR
// response and appends them to out. RData is interned: the same record served
// by many nameservers (the common hosting-provider case) collapses to one
// canonical string, which both trims live heap and makes the determiner's
// memo-map lookups pointer-equality fast.
func (c *Collector) ursFromResponse(ns NameserverInfo, domain dns.Name, qt dns.Type, resp *dns.Message, out []*UR) []*UR {
	if resp.Header.RCode != dns.RCodeSuccess {
		return out
	}
	for _, rr := range resp.Answers {
		if rr.Type() != qt || rr.Name != domain {
			continue
		}
		out = append(out, &UR{
			Server: ns,
			Domain: domain,
			Type:   qt,
			RData:  c.in.intern(rr.Data.String()),
			TTL:    rr.TTL,
		})
	}
	return out
}

// shuffledTargets returns the target list — as positions into cfg.Targets,
// which is what the replay index is addressed by — in a server-specific
// pseudo-random order, deterministic in the server address. The shuffle is an
// inline splitmix64 Fisher-Yates: math/rand's lagged-Fibonacci source
// initializes ~5 KiB of state per Seed call, which profiles as several
// percent of a clean sweep when paid once per server. The order is built in
// buf when it has the room, so a worker shuffles every job in one buffer.
func (c *Collector) shuffledTargets(buf []int32, server netip.Addr) []int32 {
	if cap(buf) < len(c.cfg.Targets) {
		buf = make([]int32, len(c.cfg.Targets))
	}
	out := buf[:len(c.cfg.Targets)]
	for i := range out {
		out[i] = int32(i)
	}
	x := uint64(0)
	for _, b := range server.AsSlice() {
		x = x*131 + uint64(b)
	}
	for i := len(out) - 1; i > 0; i-- {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// isExactlyDelegated reports whether the target — or an ancestor it
// resolves under — is delegated to this nameserver host. FQDN targets
// (api.gitlab.com) served by their SLD's delegated server are normal
// resolution, not undelegated records.
//
// The ancestor walk over cfg.DelegatedNS — which typically snapshots a
// registry delegation slice per call — runs once per target here, not once
// per (server, target) probe; every probe after that is a two-map lookup.
func (c *Collector) isExactlyDelegated(target dns.Name, ns NameserverInfo) bool {
	c.delegOnce.Do(func() {
		if c.cfg.DelegatedNS == nil {
			return
		}
		c.deleg = make(map[dns.Name]map[dns.Name]bool, len(c.cfg.Targets))
		for _, t := range c.cfg.Targets {
			hosts := make(map[dns.Name]bool)
			for n := t; n != dns.Root; n = n.Parent() {
				for _, host := range c.cfg.DelegatedNS(n) {
					hosts[host] = true
				}
			}
			c.deleg[t] = hosts
		}
	})
	return c.deleg[target][ns.Host]
}

// enrichOne attaches AS/geo/cert/HTTP data to an A-record UR and the
// corresponding IPs to A and TXT records alike (TXT correspondence with
// same-NS same-domain A records happens in the analyzer, which sees the full
// set). The pipeline's determine workers call it per streamed record so
// enrichment overlaps the sweep tail. Safe concurrently: IPDB lookups are
// read-only and the web probe cache is a singleflight.
func (c *Collector) enrichOne(u *UR) {
	switch u.Type {
	case dns.TypeA:
		addr, err := netip.ParseAddr(u.RData)
		if err != nil {
			return
		}
		u.CorrespondingIPs = []netip.Addr{addr}
		if info, ok := c.cfg.IPDB.Lookup(addr); ok {
			u.ASN, u.ASName, u.Country = info.ASN, info.ASName, info.Country
		}
		if c.probeFn != nil {
			u.HTTP = c.probe(addr)
			u.Cert = u.HTTP.Cert
		}
	case dns.TypeTXT:
		u.TXTClass = ClassifyTXT(u.RData)
		u.CorrespondingIPs = extractIPs(u.RData)
	default:
		// MX and other extension types: rdata names a host rather than
		// an address; any embedded literal IPs still count as
		// correspondence evidence.
		u.CorrespondingIPs = extractIPs(u.RData)
	}
}

// probe fetches (with caching) the HTTP/TLS enrichment for an IP. Concurrent
// callers for the same IP coalesce onto a single fetch: the first locks in a
// singleflight entry and probes, the rest wait for its result.
func (c *Collector) probe(addr netip.Addr) websim.ProbeResult {
	s := &c.probes[addrShard(addr, probeShards)]
	s.mu.Lock()
	if e, ok := s.m[addr]; ok {
		s.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &probeEntry{done: make(chan struct{})}
	s.m[addr] = e
	s.mu.Unlock()
	e.res = c.probeFn(c.cfg.SrcAddr, addr)
	close(e.done)
	return e.res
}

// CollectCorrect builds the legitimate-record database by querying the open
// resolvers for every target's A and TXT records and folding in enrichment —
// the geo-distributed correct-record collection of §4.1(2).
func (c *Collector) CollectCorrect(ctx context.Context) (*CorrectDB, error) {
	db := NewCorrectDB()
	c.wd.start()
	defer c.wd.stop()
	resolvers := make([]NameserverInfo, len(c.cfg.OpenResolvers))
	for i, r := range c.cfg.OpenResolvers {
		resolvers[i] = NameserverInfo{Addr: r}
	}
	err := c.sweepPool(ctx, 0, []sweepKind{sweepCorrect}, 0, resolvers, func(w *sweepWorker, unit int, resolver NameserverInfo) error {
		return c.collectCorrectVia(ctx, w, unit, db, resolver)
	})
	if err != nil {
		return nil, err
	}
	err = c.requeueOn(ctx, sweepCorrect, c.wd.slot(2*c.cfg.parallelism()), func(f probeFailure, resp *dns.Message) {
		c.addCorrectAnswers(db, f.domain, resp)
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

func (c *Collector) collectCorrectVia(ctx context.Context, w *sweepWorker, unit int, db *CorrectDB, resolver NameserverInfo) error {
	j := c.startJob(w, unit, resolver)
	defer j.book()
	w.order = c.shuffledTargets(w.order, resolver.Addr)
	for _, t := range w.order {
		target := c.cfg.Targets[t]
		for qi, qt := range c.cfg.queryTypes() {
			resp, err := j.probe(ctx, sweepCorrect, int(t), target, qi, qt)
			if err != nil {
				return err
			}
			if resp != nil {
				c.addCorrectAnswers(db, target, resp)
			}
		}
	}
	return nil
}

// addCorrectAnswers folds one open-resolver response into the
// legitimate-record database, with the same enrichment either way the
// response arrived (main sweep or re-queue pass).
func (c *Collector) addCorrectAnswers(db *CorrectDB, target dns.Name, resp *dns.Message) {
	if resp.Header.RCode != dns.RCodeSuccess {
		return
	}
	profile := db.Profile(target)
	for _, rr := range resp.Answers {
		switch data := rr.Data.(type) {
		case *dns.A:
			var asn ipam.ASN
			var country, certFP string
			if info, ok := c.cfg.IPDB.Lookup(data.Addr); ok {
				asn, country = info.ASN, info.Country
			}
			if c.probeFn != nil {
				if res := c.probe(data.Addr); res.Cert != nil {
					certFP = res.Cert.Fingerprint
				}
			}
			profile.AddA(data.Addr, asn, country, certFP)
		case *dns.TXT:
			profile.AddTXT(rr.Data.String())
		default:
			profile.AddOther(rr.Type(), rr.Data.String())
		}
	}
}

// CanaryName derives the protective-record canary from the config seed: a
// domain no provider hosts, stable across runs of the same configured world
// so repeated collections issue identical query plans.
func (c *Config) CanaryName() dns.Name {
	return dns.Name(fmt.Sprintf("urhunter-canary-%d.test", uint64(c.Seed)%1_000_000))
}

// sweepCanary is a nameserver job's protective phase: the canary under every
// query type.
func (c *Collector) sweepCanary(ctx context.Context, j *sweepJob, db *ProtectiveDB) error {
	for qi, qt := range c.cfg.queryTypes() {
		resp, err := j.probe(ctx, sweepProtective, len(c.cfg.Targets), c.canary, qi, qt)
		if err != nil {
			return err
		}
		if resp != nil {
			addProtectiveAnswers(db, j.ns.Addr, qt, resp)
		}
	}
	return nil
}

// addProtectiveAnswers folds one canary response into the protective-record
// database.
func addProtectiveAnswers(db *ProtectiveDB, server netip.Addr, qt dns.Type, resp *dns.Message) {
	if resp.Header.RCode != dns.RCodeSuccess {
		return
	}
	for _, rr := range resp.Answers {
		if rr.Type() == qt {
			db.Add(server, qt, rr.Data.String())
		}
	}
}
