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
// analyzer and all — may make at most 3.5 heap objects per query: it makes
// 3.19 (it made 9.9 while every probe allocated its response buffer,
// compressor, messages and names, and 4.17 while every served query allocated
// its reply). The per-layer budgets in internal/dns, internal/simnet and
// internal/dnsio say which layer regressed; this one fails when any does.
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
	if perQuery > 3.5 {
		t.Errorf("a warm tiny sweep allocates %.2f objects per query, budget 3.5", perQuery)
	}
}
