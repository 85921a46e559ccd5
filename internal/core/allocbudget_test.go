package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestSweepAllocBudget is the end-to-end allocation budget: a whole plain
// sweep of the tiny world — fabric, codec, client, collector, determiner,
// analyzer and all — may make at most 1.5 heap objects per query: it makes
// 1.02 to 1.18 (1.64 to 1.69 while a hosting nameserver decoded, built and
// packed every hosted answer and an open resolver every cached one; 2.30 to
// 2.43 while a hosting nameserver decoded every query it refused and a sweep
// worker every refusal; 2.75 while a sweep worker decoded every answer before
// asking its memo; it made 9.9 while every probe allocated its response
// buffer, compressor, messages and names, and 4.17 while every served query
// allocated its reply). The per-layer budgets in
// internal/dns, internal/simnet and internal/dnsio say which layer
// regressed; this one fails when any does.
func TestSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := scenario.Generate(scenario.Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() (queries int64, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := core.NewPipeline(w.URHunterConfig()).Run(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res.Queries, after.Mallocs - before.Mallocs
	}
	sweep() // the open resolvers' caches fill on the first pass
	queries, mallocs := sweep()
	if queries == 0 {
		t.Fatal("the sweep issued no queries")
	}
	perQuery := float64(mallocs) / float64(queries)
	t.Logf("%d heap objects for %d queries: %.2f per query", mallocs, queries, perQuery)
	if perQuery > 1.5 {
		t.Errorf("a warm tiny sweep allocates %.2f objects per query, budget 1.5", perQuery)
	}
}

// TestColdSweepAllocBudget is the first sweep of a fresh tiny world, in heap
// objects per query: every open resolver walks and caches what it is asked.
// It may make at most 2.9; it makes 2.15 to 2.22. It made 2.45 to 2.54
// while every hosted answer and every cached open-resolver answer was
// decoded, built and packed, 3.16 to 3.41 while a hosting nameserver decoded
// every query it refused and a sweep worker every refusal, and 3.86 to 3.94
// while each resolver also decoded, re-built, re-packed and re-interned an
// upstream answer another resolver of its pool had already received, and
// each sweep worker decoded a repeated answer before looking it up.
func TestColdSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := scenario.Generate(scenario.Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := core.NewPipeline(w.URHunterConfig()).Run(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("the sweep issued no queries")
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(res.Queries)
	t.Logf("%d heap objects for %d queries: %.2f per query", after.Mallocs-before.Mallocs, res.Queries, perQuery)
	if perQuery > 2.9 {
		t.Errorf("a cold tiny sweep allocates %.2f objects per query, budget 2.9", perQuery)
	}
}

// TestResumeAllocBudget is the resume's allocation budget: reopening a
// complete journal of a warm tiny sweep and running the pipeline over it —
// index, replay, determiner, analyzer and all — may make at most 1.1 heap
// objects per replayed record. It makes 0.79 to 1.02, depending on which
// sweep worker claims which server; it made 1.75 while every replayed answer
// was decoded, rendered and enriched again, before a sweep worker remembered
// what it derived from each distinct answer and a determine worker what it
// derived from each distinct rdata.
func TestResumeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := scenario.Generate(scenario.Tiny(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewPipeline(w.URHunterConfig()).Run(context.Background()); err != nil {
		t.Fatal(err) // the open resolvers' caches fill on the first pass
	}
	dir := t.TempDir()
	run := func() (replayed int, mallocs uint64) {
		cfg := w.URHunterConfig()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		j, err := core.OpenJournal(dir, cfg, core.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
		_, err = core.NewPipeline(cfg).Run(context.Background())
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return j.ReplayedAnswered(), after.Mallocs - before.Mallocs
	}
	run() // the journaled sweep
	replayed, mallocs := run()
	if replayed == 0 {
		t.Fatal("the resume replayed nothing")
	}
	perRecord := float64(mallocs) / float64(replayed)
	t.Logf("%d heap objects for %d replayed records: %.2f per record", mallocs, replayed, perRecord)
	if perRecord > 1.1 {
		t.Errorf("a resume of a warm tiny journal allocates %.2f objects per replayed record, budget 1.1", perRecord)
	}
}
