package core

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// Result is the full output of a URHunter run.
type Result struct {
	// URs is every collected undelegated record, classified.
	URs []*UR
	// Suspicious is the subset that survived §4.2 exclusion (malicious +
	// unknown after §4.3).
	Suspicious []*UR

	Correct    *CorrectDB
	Protective *ProtectiveDB
	Analyzer   *Analyzer

	// Queries is the total DNS queries issued (the paper's "23 million DNS
	// responses" analogue).
	Queries int64

	// Coverage is the measurement-completeness summary across all three
	// collection sweeps: attempted vs answered probes, failures by class,
	// re-queue recoveries, and circuit-breaker trips.
	Coverage *Coverage

	// Stages carries the overlapped pipeline's stage timings. Observational
	// only — never rendered into reports, so byte-identity across parallelism
	// settings is unaffected.
	Stages *StageTimings
}

// StageTimings records how long each overlapped stage spent busy and the
// run's wall-clock. Because the stages overlap, the per-stage durations can
// sum past the wall time; that surplus is the overlap win.
type StageTimings struct {
	// Correct is the correct-record sweep's span (start of run → correct DB
	// ready).
	Correct time.Duration
	// Nameservers is the fused protective+UR sweep's span.
	Nameservers time.Duration
	// Determine is the streaming classification span: from the moment the
	// correct DB opened the gate until the last streamed batch was
	// classified.
	Determine time.Duration
	// Analyze is the §4.3 labeling span.
	Analyze time.Duration
	// Wall is the whole run.
	Wall time.Duration
}

// Pipeline chains the three URHunter components.
type Pipeline struct {
	Cfg *Config
	// Determiner is exposed so experiments can toggle the Appendix B
	// conditions before Run (the E14 ablation).
	Determiner *Determiner

	collector *Collector
}

// NewPipeline builds a pipeline over a configured world.
func NewPipeline(cfg *Config) *Pipeline {
	return &Pipeline{Cfg: cfg, collector: NewCollector(cfg)}
}

// Collector exposes the collection component.
func (p *Pipeline) Collector() *Collector { return p.collector }

// partial snapshots what the collector managed before a sweep failed, so a
// cancelled or crashed run still reports its query and coverage books (the
// caller prints them alongside the error, and a journal holds the rest).
func (p *Pipeline) partial() *Result {
	return &Result{
		Queries:  p.collector.Queries(),
		Coverage: p.collector.Coverage(),
	}
}

// Run executes collection, determination, and analysis as an overlapped
// dataflow rather than five sequential barriers:
//
//	CollectCorrect ─────────┐ (gate: correct DB ready)
//	                        ├─→ determine workers ──→ merge ─→ sort ─→ analyze
//	fused NS sweep ── URs ──┘ (per-server batches)
//	NewAnalyzer (IDS corpus) ───────────────────────────────────┘
//
// The correct-record sweep and the fused protective+UR nameserver sweep run
// concurrently. They ask disjoint endpoint sets, but the open resolvers
// recurse into the measured nameservers, so the two share those endpoints'
// exchange sequences (stream.go). Each nameserver's UR batch streams into a
// pool of classification workers the moment the server's fused job finishes;
// the workers block only on the correct DB, so classification overlaps the
// sweep tail. Results land in per-worker slices and are merged through one
// canonical sort, so reports are byte-identical at any Parallelism setting —
// resumed or not — unless a probabilistic fault sits on a nameserver.
//
// On error — including context cancellation mid-sweep — the returned Result
// is non-nil and carries the partial query/coverage books accumulated before
// the interruption.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	st := &StageTimings{}

	// The analyzer's IDS pass over the sandbox corpus depends on no sweep;
	// build it while collection runs. A shard's run is collect-only and
	// skips it — determination and analysis happen once, after the shard
	// journals merge.
	collectOnly := p.Cfg.Shard != nil
	analyzerCh := make(chan *Analyzer, 1)
	if collectOnly {
		analyzerCh <- nil
	} else {
		go func() { analyzerCh <- NewAnalyzer(p.Cfg) }()
	}

	protective := NewProtectiveDB()
	if p.Determiner == nil {
		p.Determiner = NewDeterminer(p.Cfg, nil, protective)
	} else {
		p.Determiner.correct = nil
		p.Determiner.protective = protective
	}
	det := p.Determiner

	var (
		correct    *CorrectDB
		correctErr error
		nsErr      error
		gateAt     time.Time
	)
	correctDone := make(chan struct{})
	stream := make(chan []*UR, streamBacklog)

	var sweeps sync.WaitGroup
	sweeps.Add(2)
	go func() {
		defer sweeps.Done()
		db, err := p.collector.CollectCorrect(ctx)
		st.Correct = time.Since(t0)
		correct, correctErr = db, err
		// det.correct must be visible before the gate opens; the channel
		// close is the happens-before edge the workers synchronize on.
		det.correct = db
		gateAt = time.Now()
		close(correctDone)
		if err != nil {
			cancel()
		}
	}()
	go func() {
		defer sweeps.Done()
		defer close(stream)
		nsErr = p.collector.collectNameservers(ctx, protective, func(batch []*UR) {
			if len(batch) > 0 {
				stream <- batch
			}
		})
		st.Nameservers = time.Since(t0)
		if nsErr != nil {
			cancel()
		}
	}()

	// Streaming determination: a server's batch is classifiable once the
	// correct DB exists — its protective records were finalized by its own
	// fused job before the batch was emitted. Workers always drain the
	// stream, even on error, so the sweep's emits never block forever.
	workers := p.Cfg.parallelism()
	shards := make([][]*UR, workers)
	var dwg sync.WaitGroup
	for i := 0; i < workers; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			<-correctDone
			var local []*UR
			var memo *detMemo
			if det.correct != nil && !collectOnly {
				memo = newDetMemo()
			}
			for batch := range stream {
				if memo != nil {
					for _, u := range batch {
						p.collector.enrichOne(memo, u)
						det.classifyMemo(memo, u)
					}
				}
				local = append(local, batch...)
			}
			shards[i] = local
		}(i)
	}
	sweeps.Wait()
	dwg.Wait()
	st.Determine = time.Since(gateAt)

	if err := pickErr(correctErr, nsErr, ctx.Err()); err != nil {
		return p.partial(), err
	}

	n := 0
	for _, s := range shards {
		n += len(s)
	}
	var urs []*UR
	if n > 0 {
		urs = make([]*UR, 0, n)
		for _, s := range shards {
			urs = append(urs, s...)
		}
	}
	sortURs(urs)
	var suspicious []*UR
	if !collectOnly {
		// Unclassified records default to CategoryUnknown, so a collect-only
		// run must not run this filter — every record would read suspicious.
		for _, u := range urs {
			if u.Category == CategoryUnknown {
				suspicious = append(suspicious, u)
			}
		}
	}

	analyzer := <-analyzerCh
	if analyzer != nil {
		ta := time.Now()
		analyzer.AnalyzeParallel(suspicious, workers)
		st.Analyze = time.Since(ta)
	}
	st.Wall = time.Since(t0)

	return &Result{
		URs:        urs,
		Suspicious: suspicious,
		Correct:    correct,
		Protective: protective,
		Analyzer:   analyzer,
		Queries:    p.collector.Queries(),
		Coverage:   p.collector.Coverage(),
		Stages:     st,
	}, nil
}

// FalseNegativeCheck is the §4.2 validation: it feeds the *delegated*
// records of every target (resolved through an open resolver) through the
// exclusion stage and returns how many were wrongly kept as suspicious —
// the paper reports zero. The records are enriched as the sweep enriches its
// own, through the collector's probe cache, so after Run an address the sweep
// already probed is not probed again.
func (p *Pipeline) FalseNegativeCheck(ctx context.Context, res *Result) (int, int, error) {
	if len(p.Cfg.OpenResolvers) == 0 {
		return 0, 0, nil
	}
	tr, err := p.Cfg.transport()
	if err != nil {
		return 0, 0, err
	}
	client := dnsio.NewClient(tr)
	client.SeedIDs(0xFACE)
	resolver := netip.AddrPortFrom(p.Cfg.OpenResolvers[0], dnsio.DNSPort)

	// Reuse the pipeline's determiner so ablated condition toggles are
	// reflected in the validation, as the E14 experiment requires.
	det := p.Determiner
	if det == nil {
		det = NewDeterminer(p.Cfg, res.Correct, res.Protective)
	} else {
		det.correct = res.Correct
		det.protective = res.Protective
	}
	memo := newDetMemo()
	delegated := &NameserverInfo{Addr: resolver.Addr(), Host: "delegated", Provider: "delegated"}
	total, falseNeg := 0, 0
	for _, target := range p.Cfg.Targets {
		for _, qt := range p.Cfg.queryTypes() {
			resp, err := client.Query(ctx, resolver, target, qt)
			if err != nil || resp.Header.RCode != dns.RCodeSuccess {
				continue
			}
			for _, rr := range resp.Answers {
				if rr.Type() != qt || rr.Name != target {
					continue
				}
				u := &UR{
					Server: delegated,
					Domain: target, Type: qt, RData: rr.Data.String(), TTL: rr.TTL,
				}
				p.collector.enrichOne(memo, u)
				det.classifyMemo(memo, u)
				total++
				if u.Category == CategoryUnknown {
					falseNeg++
				}
			}
		}
	}
	return total, falseNeg, nil
}
