package core

import (
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
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

	// Parallelism bounds the collection worker pool and the overlapped
	// pipeline's streaming classification pool. Zero or negative selects
	// runtime.GOMAXPROCS(0), i.e. one worker per available core.
	Parallelism int

	// QueryTypes defaults to A and TXT, the paper's two sweeps.
	QueryTypes []dns.Type

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

	// Shard, when non-nil, makes this config one worker's slice of a larger
	// plan; see ShardConfig. A whole-plan run leaves it nil.
	Shard *Shard
}

// politeInterval is the per-server query spacing a real-world run of the plan
// would honour: the ethics appendix commits to one query per server every
// ~130 seconds on average. The simulation does not sleep; the collector keeps
// the books so PoliteScanEstimate can report the polite wall-clock.
const politeInterval = 130 * time.Second

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

// probeEntry is a singleflight slot for one IP's web probe: the first
// requester fills res and closes done; everyone else blocks on done instead
// of issuing a duplicate probe.
type probeEntry struct {
	done chan struct{}
	res  websim.ProbeResult
}

// Collector implements §4.1: response collection.
type Collector struct {
	cfg    *Config
	client *dnsio.Client
	// err is the sticky construction error (an unknown TransportKind).
	err error

	queries atomic.Int64
	// probes is the web-probe cache, one singleflight entry per address.
	probeMu sync.Mutex
	probes  map[netip.Addr]*probeEntry
	// cov is the coverage book: per-server query counts and
	// attempted/answered tallies, plus the failure records feeding the
	// end-of-sweep re-queue pass.
	cov coverageBook

	// probeFn indirects websim.World.Probe so tests can count or stub the
	// expensive web fetch; nil when the config carries no web world.
	probeFn func(src, dst netip.Addr) websim.ProbeResult

	// journal is the optional checkpoint store. Opened over a prior run's
	// directory it also carries the replay index sweep workers consult before
	// querying a probe; see sweepJob.probe.
	journal *Journal

	// canary is cfg.CanaryName(), formatted once.
	canary dns.Name

	// deleg memoizes the delegated hosts of each target position (the
	// ancestor walk over cfg.DelegatedNS), built once on first use instead of
	// copying delegation slices on every (server, target) probe.
	delegOnce sync.Once
	deleg     [][]dns.Name
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
	c := &Collector{cfg: cfg, client: client, err: err, journal: cfg.Journal, canary: cfg.CanaryName(), probes: make(map[netip.Addr]*probeEntry)}
	c.cov.per = make(map[netip.Addr]*serverCov)
	if cfg.Web != nil {
		c.probeFn = cfg.Web.Probe
	}
	return c
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
// segment, the scratch every answer — live or, on a resumed run, replayed from
// the index — is decoded into, the memo of what it derived from the answers it
// has seen and the table its URs' rdata is interned in (memo.go), and the
// buffer its jobs shuffle their target order in.
type sweepWorker struct {
	seg     *segmentWriter
	replay  *replayIndex
	scratch dnsio.Scratch
	answers answerMemo
	strs    internTable
	order   []int32

	// kind is the sweep kind of the live probe in flight, and seen the memo
	// entry the client found its answer in, if it did. at is where the last
	// probe's answer bytes were journaled in seg, 0 when they were not: the
	// offset the memo entry made from that answer records.
	kind sweepKind
	seen *derivedAnswer
	at   uint32
}

// Known implements dnsio.KnownAnswers over the worker's answer memo for the
// live probe in flight, so a repeated answer is accepted without a decode.
// An entry is made only from an answer the client decoded and validated.
func (w *sweepWorker) Known(resp []byte, q dns.Question) bool {
	w.seen = w.answers.get(resp, w.kind, q.Name, q.Type)
	return w.seen != nil
}

// sweepJob is a worker's pass over one server unit. Its counters and failure
// list are booked once, when the job ends.
type sweepJob struct {
	c      *Collector
	w      *sweepWorker
	ns     *NameserverInfo
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
func (c *Collector) startJob(w *sweepWorker, u int, ns *NameserverInfo) sweepJob {
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
	j.c.bookSweep(j.ns.Addr, j.issued, j.attempted, j.answered, j.recovered, j.fails)
}

// fail files one failed probe on the job's list.
func (j *sweepJob) fail(kind sweepKind, pos probePos, name dns.Name, qt dns.Type, class dnsio.FailClass) {
	j.fails = append(j.fails, probeFailure{ns: j.ns, domain: name, qtype: qt, class: class, sweep: kind, pos: pos})
}

// probe settles one planned probe — target position t (the canary's is
// len(Targets)), query-type position qi. An answer the worker has derived
// before for the same probe kind, name and type comes back as seen, the
// memo's entry, and is not decoded — a live one is recognised by the client
// (sweepWorker.Known); any other comes back as resp with the wire bytes it
// was decoded from, for the caller to derive and answers.put.
// Both are nil when the probe failed and now sits on j.fails, or was
// replayed as an answer with nothing in it. A non-nil error is fatal to the
// sweep (cancellation, journal write failure). A probe the sweep's
// cancellation cut off is left for a resume: not attempted, filed or
// journaled.
//
// On a resumed run the journal is asked first. An answered probe is booked
// answered — one that had also failed books a recovery — and, unless it was
// journaled empty or is in the memo, decoded into the worker's scratch to
// take the caller's live-answer path. A failed probe is filed as the live
// failure was, without journaling it again. A CRC-clean answer that does not
// decode is neither trusted nor skipped: the probe is queried again. resp and
// wire live in the worker's scratch or the replay index and are only valid
// until the worker's next probe: whatever outlasts a probe is copied out of
// them (the journal copies the wire, URs intern their rdata, the databases
// take values).
func (j *sweepJob) probe(ctx context.Context, kind sweepKind, t int, name dns.Name, qi int, qt dns.Type) (resp *dns.Message, wire []byte, seen *derivedAnswer, err error) {
	w := j.w
	w.at = 0
	pos := probePos{j.unit, t*j.nq + qi}
	if j.base >= 0 {
		id := j.base + pos.slot
		class, failed := w.replay.failed(id)
		if kept, ok := w.replay.answer(id); ok {
			if kept != nil {
				if seen = w.answers.get(kept, kind, name, qt); seen == nil {
					resp, err = w.scratch.Decode(kept)
				}
			}
			if err == nil {
				j.attempted++
				j.answered++
				if failed {
					j.recovered++
				}
				return resp, kept, seen, nil
			}
		} else if failed {
			j.attempted++
			j.fail(kind, pos, name, qt, class)
			return nil, nil, nil, nil
		}
	}
	// Cancellation is checked on the live path only (a replayed probe is a
	// sub-microsecond memory read), and through Done, an atomic load: Err takes
	// the context's mutex, which the two overlapped pools share.
	select {
	case <-ctx.Done():
		return nil, nil, nil, ctx.Err()
	default:
	}
	j.issued++
	w.scratch.Known, w.kind, w.seen = w, kind, nil
	resp, wire, err = j.c.client.QueryInto(ctx, &w.scratch, j.server, name, qt)
	if err != nil && ctx.Err() != nil {
		return nil, nil, nil, ctx.Err()
	}
	j.attempted++
	if err != nil {
		class := dnsio.Classify(err)
		j.fail(kind, pos, name, qt, class)
		if w.seg != nil {
			return nil, nil, nil, w.seg.failure(pos, class)
		}
		return nil, nil, nil, nil
	}
	j.answered++
	if w.seg != nil {
		if jerr := w.journal(pos, resp, wire); jerr != nil {
			return nil, nil, nil, jerr
		}
	}
	return resp, wire, w.seen, nil
}

// journal writes a live answer to the worker's segment. The collector reads
// only a NOERROR response's answer records (ursFromResponse,
// addCorrectAnswers, addProtectiveAnswers; Coverage counts the probe answered
// either way), so an empty answer (emptyAnswer) is its position alone, whether
// the worker decoded it or the client recognised it from the memo. An answer
// recognised from a memo entry whose bytes this segment holds is a reference
// to them; any other keeps its bytes, and the entry made from it, or the one
// it was recognised from — made from a replayed answer, whose bytes are in an
// older segment — records where they are.
func (w *sweepWorker) journal(pos probePos, resp *dns.Message, wire []byte) error {
	d := w.seen
	switch {
	case d == nil && emptyAnswer(resp) || d != nil && d.empty:
		return w.seg.empty(pos)
	case d != nil && d.at != 0:
		return w.seg.ref(pos, d.at)
	}
	at, err := w.seg.answered(pos, wire)
	if d != nil {
		d.at = at
	}
	w.at = at
	return err
}

// sweepPool runs job once per server on the collection worker pool and
// returns the first error: the collector's own construction error, a
// worker's, else the context's — a cancellation that lands between jobs
// stops the pool without any job seeing it, and the sweep is still
// incomplete. kinds names the sweep kinds this pool covers, for the journal
// to release its replay state once the last of them is through.
//
// Workers claim servers in list order, one at a time, until the list is
// exhausted, the context is cancelled, a worker hits a fatal error, or — on a
// shard — the claimed unit lies at or past the yield cursor. unit0 is
// servers[0]'s unit position in the config's plan (open resolvers first, then
// nameservers), and job is handed each server's; the cursor only moves down,
// so the first yielded unit a worker claims ends its run.
func (c *Collector) sweepPool(ctx context.Context, kinds []sweepKind, unit0 int, servers []NameserverInfo, job func(w *sweepWorker, unit int, ns *NameserverInfo) error) error {
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

	for range c.cfg.parallelism() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &sweepWorker{replay: replay}
			var err error
			if w.seg, err = c.newSegment(); w.seg != nil {
				defer c.releaseSegment(w.seg)
			}
			for err == nil && !stop.Load() && ctx.Err() == nil {
				pos := int(next.Add(1)) - 1
				if pos >= len(servers) || !c.cfg.Shard.owns(unit0+pos) {
					break
				}
				if err = job(w, unit0+pos, &servers[pos]); err == nil {
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
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Queries returns the number of DNS queries issued so far.
func (c *Collector) Queries() int64 {
	return c.queries.Load()
}

// PoliteScanEstimate reports the wall-clock a real-world run of the executed
// query plan would take under the ethics appendix's per-server pacing: the
// busiest server's query count times the polite interval (servers are
// queried in parallel, so the busiest one gates the scan).
func (c *Collector) PoliteScanEstimate() time.Duration {
	var busiest int64
	c.cov.mu.Lock()
	for _, sc := range c.cov.per {
		busiest = max(busiest, sc.queries)
	}
	c.cov.mu.Unlock()
	return time.Duration(busiest) * politeInterval
}

// requeueOn re-runs one sweep's failed probes after the main pass — probes
// that failed while a server was flapping, lossy, or breaker-blocked get one
// more chance now that the sweep pressure is off and breakers may have
// recovered — in canonical order so the extra query plan is deterministic. It
// runs on the caller goroutine with its own scratch, so the pipeline's two
// concurrent re-queue tails (correct sweep, fused nameserver sweep) never
// share one. Each server's failures go through retry as one batch, booked
// once: its queries, its recoveries, and the probes that fail again, refiled
// with their new failure class (still-open breakers fail fast without
// touching the fabric). After an error the batches not yet retried are
// refiled as they were.
func (c *Collector) requeueOn(ctx context.Context, kind sweepKind, onAnswer func(f probeFailure, resp *dns.Message)) error {
	fails := c.drainFailures(kind)
	if len(fails) == 0 {
		return nil
	}
	seg, err := c.newSegment()
	if seg != nil {
		defer c.releaseSegment(seg)
	}
	sortFailures(fails)
	var scratch dnsio.Scratch
	for len(fails) > 0 {
		addr := fails[0].ns.Addr
		n := 1
		for n < len(fails) && fails[n].ns.Addr == addr {
			n++
		}
		batch := fails[:n]
		still, issued := batch, int64(0)
		if err == nil {
			still, issued, err = c.retry(ctx, &scratch, seg, batch, onAnswer)
		}
		recovered := int64(n - len(still))
		c.bookSweep(addr, issued, 0, recovered, recovered, still)
		fails = fails[n:]
	}
	return err
}

// retry re-probes failed probes in order, over the caller's scratch and
// journal segment (nil when unjournaled). A probe that answers is journaled
// and handed to onAnswer; one that fails again takes its new failure class,
// is journaled, and is kept. It returns the probes still unanswered and
// the queries it issued. A cancellation or a journal write error stops it, and
// still then also holds every probe it did not reach; a probe the
// cancellation cut off is kept as it was, not journaled. Callers book
// len(fails)-len(still) recoveries, which counts a probe that answered but
// whose answer could not be journaled: its recovery is booked as if before
// the write. still reuses fails' storage.
func (c *Collector) retry(ctx context.Context, scratch *dnsio.Scratch, seg *segmentWriter, fails []probeFailure, onAnswer func(f probeFailure, resp *dns.Message)) (still []probeFailure, issued int64, err error) {
	still = fails[:0]
	for i, f := range fails {
		if err = ctx.Err(); err != nil {
			return append(still, fails[i:]...), issued, err
		}
		issued++
		server := netip.AddrPortFrom(f.ns.Addr, dnsio.DNSPort)
		resp, wire, qerr := c.client.QueryInto(ctx, scratch, server, f.domain, f.qtype)
		if qerr != nil && ctx.Err() != nil {
			return append(still, fails[i:]...), issued, ctx.Err()
		}
		if qerr != nil {
			f.class = dnsio.Classify(qerr)
			still = append(still, f)
		}
		if seg != nil {
			switch {
			case qerr != nil:
				err = seg.failure(f.pos, f.class)
			case emptyAnswer(resp):
				err = seg.empty(f.pos)
			default:
				_, err = seg.answered(f.pos, wire)
			}
			if err != nil {
				return append(still, fails[i+1:]...), issued, err
			}
		}
		if qerr == nil {
			onAnswer(f, resp)
		}
	}
	return still, issued, nil
}

// sortURs puts a UR set into its canonical order (compareURs). Collection
// order depends on worker scheduling; the canonical order does not. Records
// equal in all five keys are equal in everything the report shows, so the
// sort need not be stable.
func sortURs(urs []*UR) { slices.SortFunc(urs, compareURs) }

// compareURs is the canonical order: server address, then domain, type,
// rdata, and TTL.
func compareURs(a, b *UR) int {
	if c := a.Server.Addr.Compare(b.Server.Addr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RData, b.RData); c != 0 {
		return c
	}
	return cmp.Compare(a.TTL, b.TTL)
}

// mergeURs merges batches, each in canonical order, into one slice in that
// order, as sortURs over their concatenation would put it. A heap holds the
// batches by their first record, and the top batch gives up records for as
// long as they sort no later than the runner-up's first: a batch of one
// server, which every sweep batch but the re-queue's is, moves in one run.
func mergeURs(batches [][]*UR) []*UR {
	h := make([][]*UR, 0, len(batches))
	n := 0
	for _, b := range batches {
		if len(b) > 0 {
			h = append(h, b)
			n += len(b)
		}
	}
	if n == 0 {
		return nil
	}
	less := func(i, k int) bool { return compareURs(h[i][0], h[k][0]) < 0 }
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && less(c, m) {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]*UR, 0, n)
	for len(h) > 1 {
		next := h[1][0]
		if len(h) > 2 && less(2, 1) {
			next = h[2][0]
		}
		b := h[0]
		k := 1
		for k < len(b) && compareURs(b[k], next) <= 0 {
			k++
		}
		out = append(out, b[:k]...)
		if h[0] = b[k:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return append(out, h[0]...)
}

// sweepTargets is a nameserver job's UR phase: every non-delegated target,
// every query type, appended to out.
func (c *Collector) sweepTargets(ctx context.Context, j *sweepJob, out []*UR) ([]*UR, error) {
	// Ethics appendix: queries are issued in randomized order, never
	// walking the target list top-down against any single server.
	j.w.order = c.shuffledTargets(j.w.order, j.ns.Addr)
	for _, t := range j.w.order {
		if c.isExactlyDelegated(t, j.ns) {
			continue
		}
		target := c.cfg.Targets[t]
		for qi, qt := range c.cfg.queryTypes() {
			resp, wire, seen, err := j.probe(ctx, sweepURs, int(t), target, qi, qt)
			switch {
			case err != nil:
				return out, err
			case seen != nil:
				out = seen.appendURs(out, j.ns)
			case resp != nil:
				n := len(out)
				out = ursFromResponse(&j.w.strs, j.ns, target, qt, resp, out)
				j.w.answers.put(wire, resp, sweepURs, target, qt, out[n:], j.w.at)
			}
		}
	}
	return out, nil
}

// ursFromResponse extracts this probe's undelegated records from a NOERROR
// response and appends them to out. RData is interned in strs: the same record
// served by many nameservers (the common hosting-provider case) collapses to
// one string per sweep worker, which both trims live heap and makes the
// determiner's memo-map lookups pointer-equality fast.
func ursFromResponse(strs *internTable, ns *NameserverInfo, domain dns.Name, qt dns.Type, resp *dns.Message, out []*UR) []*UR {
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
			RData:  strs.intern(rr.Data.String()),
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
// per (server, target) probe; every probe after that scans the target
// position t's few hosts, without hashing a name.
func (c *Collector) isExactlyDelegated(t int32, ns *NameserverInfo) bool {
	c.delegOnce.Do(func() {
		if c.cfg.DelegatedNS == nil {
			return
		}
		c.deleg = make([][]dns.Name, len(c.cfg.Targets))
		for i, target := range c.cfg.Targets {
			var hosts []dns.Name
			for n := target; n != dns.Root; n = n.Parent() {
				for _, host := range c.cfg.DelegatedNS(n) {
					if !slices.Contains(hosts, host) {
						hosts = append(hosts, host)
					}
				}
			}
			c.deleg[i] = hosts
		}
	})
	return c.deleg != nil && slices.Contains(c.deleg[t], ns.Host)
}

// enrichOne points a UR at its rdata's shared enrichment record — AS, geo
// and web probe for an A record, the class for a TXT one — and attaches the
// corresponding IPs to every type (TXT correspondence with same-NS
// same-domain A records happens in the analyzer, which sees the full set).
// The pipeline's determine workers call it per streamed record, each with
// its own memo m, so enrichment overlaps the sweep tail and is derived once
// per distinct rdata. Safe concurrently across memos: IPDB lookups are
// read-only and the web probe cache is a singleflight.
func (c *Collector) enrichOne(m *detMemo, u *UR) {
	f := c.rdataFacts(m, u.Type, u.RData)
	if u.Type == dns.TypeA && !f.addr.IsValid() {
		return
	}
	u.CorrespondingIPs, u.enr = f.ips, f.enr
}

// probe fetches (with caching) the HTTP/TLS enrichment for an IP. Concurrent
// callers for the same IP coalesce onto a single fetch: the first locks in a
// singleflight entry and probes, the rest wait for its result.
func (c *Collector) probe(addr netip.Addr) websim.ProbeResult {
	c.probeMu.Lock()
	if e, ok := c.probes[addr]; ok {
		c.probeMu.Unlock()
		<-e.done
		return e.res
	}
	e := &probeEntry{done: make(chan struct{})}
	c.probes[addr] = e
	c.probeMu.Unlock()
	e.res = c.probeFn(c.cfg.SrcAddr, addr)
	close(e.done)
	return e.res
}

// CollectCorrect builds the legitimate-record database by querying the open
// resolvers for every target's A and TXT records and folding in enrichment —
// the geo-distributed correct-record collection of §4.1(2). Every target's
// profile is made before the pool starts, so the sweep reaches one by target
// position and nobody writes the database's index.
func (c *Collector) CollectCorrect(ctx context.Context) (*CorrectDB, error) {
	db := NewCorrectDB()
	profiles := make([]*DomainProfile, len(c.cfg.Targets))
	for i, target := range c.cfg.Targets {
		profiles[i] = db.Profile(target)
	}
	resolvers := make([]NameserverInfo, len(c.cfg.OpenResolvers))
	for i, r := range c.cfg.OpenResolvers {
		resolvers[i] = NameserverInfo{Addr: r}
	}
	err := c.sweepPool(ctx, []sweepKind{sweepCorrect}, 0, resolvers, func(w *sweepWorker, unit int, resolver *NameserverInfo) error {
		return c.collectCorrectVia(ctx, w, unit, profiles, resolver)
	})
	if err != nil {
		return nil, err
	}
	nq := len(c.cfg.queryTypes())
	err = c.requeueOn(ctx, sweepCorrect, func(f probeFailure, resp *dns.Message) {
		c.addCorrectAnswers(profiles[f.pos.slot/nq], resp)
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

func (c *Collector) collectCorrectVia(ctx context.Context, w *sweepWorker, unit int, profiles []*DomainProfile, resolver *NameserverInfo) error {
	j := c.startJob(w, unit, resolver)
	defer j.book()
	w.order = c.shuffledTargets(w.order, resolver.Addr)
	for _, t := range w.order {
		target := c.cfg.Targets[t]
		for qi, qt := range c.cfg.queryTypes() {
			// An answer the worker has folded before (seen) is already in
			// the database: the profile adds are set inserts.
			resp, wire, _, err := j.probe(ctx, sweepCorrect, int(t), target, qi, qt)
			if err != nil {
				return err
			}
			if resp != nil {
				c.addCorrectAnswers(profiles[t], resp)
				w.answers.put(wire, resp, sweepCorrect, target, qt, nil, w.at)
			}
		}
	}
	return nil
}

// addCorrectAnswers folds one open-resolver response into the target's
// legitimate-record profile, with the same enrichment either way the response
// arrived (main sweep or re-queue pass). An address the profile already holds
// is skipped before its IPDB lookup and web probe: its AS, country and
// certificate are fixed within a sweep, so they are in the profile already.
func (c *Collector) addCorrectAnswers(profile *DomainProfile, resp *dns.Message) {
	if resp.Header.RCode != dns.RCodeSuccess {
		return
	}
	for _, rr := range resp.Answers {
		switch data := rr.Data.(type) {
		case *dns.A:
			if profile.hasIP(data.Addr) {
				continue
			}
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
		// Canary answers are never memoized, so none comes back seen.
		resp, _, _, err := j.probe(ctx, sweepProtective, len(c.cfg.Targets), c.canary, qi, qt)
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
