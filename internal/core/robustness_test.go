package core

import (
	"context"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dns"
)

// TestCollectorUnderPacketLoss injects datagram loss into the fabric and
// verifies the sweep still completes; with the client's retry budget, a
// moderate loss rate should not cost coverage.
func TestCollectorUnderPacketLoss(t *testing.T) {
	fx := newCollectorFixture(t)

	_, baseline, _ := sweepNameservers(t, fx.cfg)

	fx.cfg.Fabric.SetLossRate(0.15)
	_, lossy, _ := sweepNameservers(t, fx.cfg)
	if len(lossy) < len(baseline)-1 {
		t.Errorf("lossy sweep collected %d URs, baseline %d", len(lossy), len(baseline))
	}
	if fx.cfg.Fabric.Drops() == 0 {
		t.Error("loss injection did not drop anything")
	}
}

// TestPipelineUnderHeavyLossStillClassifies pushes loss high enough that
// some records vanish, and checks the pipeline degrades without error.
func TestPipelineUnderHeavyLossStillClassifies(t *testing.T) {
	fx := newCollectorFixture(t)
	fx.cfg.Fabric.SetLossRate(0.5)
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Whatever was collected must be fully classified.
	for _, u := range res.URs {
		if u.Category == CategoryUnknown {
			// unknown is a valid terminal class; just ensure the field set
			// is consistent.
			if u.Reason != ReasonNone {
				t.Errorf("unknown UR with reason %q", u.Reason)
			}
		}
	}
}

// TestDeterminerIdempotent: classifying the same UR twice yields the same
// category and reason.
func TestDeterminerIdempotent(t *testing.T) {
	cfg, correct, prot := detConfig()
	d := NewDeterminer(cfg, correct, prot)
	f := func(ipByte byte, useKnownIP bool) bool {
		rdata := "93.0.0.10"
		if !useKnownIP {
			rdata = "66.6.6." + string(rune('0'+ipByte%10))
		}
		u := aUR("100.1.0.54", rdata)
		d.classify(u)
		cat1, reason1 := u.Category, u.Reason
		u.Category, u.Reason = CategoryUnknown, ReasonNone
		d.classify(u)
		return u.Category == cat1 && u.Reason == reason1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDetermineOrderIndependence: the classification of one UR does not
// depend on the other URs in the batch.
func TestDetermineOrderIndependence(t *testing.T) {
	cfg, correct, prot := detConfig()
	mk := func() []*UR {
		return []*UR{
			aUR("100.1.0.53", "100.1.0.200"), // protective
			aUR("100.1.0.54", "93.0.0.10"),   // correct (IP subset)
			aUR("100.1.0.54", "66.6.6.6"),    // suspicious
		}
	}
	d := NewDeterminer(cfg, correct, prot)
	fwd := mk()
	d.Determine(fwd)
	rev := mk()
	revInput := []*UR{rev[2], rev[1], rev[0]}
	d.Determine(revInput)
	for i := range fwd {
		if fwd[i].Category != rev[i].Category {
			t.Errorf("UR %d: %v vs %v", i, fwd[i].Category, rev[i].Category)
		}
	}
}

// TestMXExtensionSweep drives the future-work record type through the
// fixture: with no MX anywhere, the sweep must complete empty (the rich MX
// path is covered by the scenario-level E16 test).
func TestMXExtensionSweep(t *testing.T) {
	fx := newCollectorFixture(t)
	fx.cfg.QueryTypes = []dns.Type{dns.TypeMX}
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// No MX anywhere in the fixture: the sweep completes empty.
	if len(res.URs) != 0 {
		t.Errorf("unexpected MX URs: %v", res.URs)
	}
}

// TestConfigDefaults exercises the Config fallbacks.
func TestConfigDefaults(t *testing.T) {
	c := &Config{}
	if got := c.parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	c.Parallelism = 3
	if got := c.parallelism(); got != 3 {
		t.Errorf("parallelism = %d", got)
	}
	qt := c.queryTypes()
	if len(qt) != 2 || qt[0] != dns.TypeA || qt[1] != dns.TypeTXT {
		t.Errorf("default query types = %v", qt)
	}
}

// TestResultEmptyWorld: the report methods must not panic on an empty
// result.
func TestResultEmptyWorld(t *testing.T) {
	res := &Result{}
	if rows := res.Table1(); rows[2].URs != 0 {
		t.Error("non-zero table1 on empty result")
	}
	if got := res.Figure2(5); len(got) != 0 {
		t.Errorf("figure2 = %v", got)
	}
	if res.Figure3a().Total() != 0 {
		t.Error("figure3a non-zero")
	}
	_ = res.Figure3b()
	_ = res.Figure3c()
	_ = res.Figure3d()
	if e, m := res.TXTEmailShare(); e != 0 || m != 0 {
		t.Error("TXT share non-zero")
	}
}

// TestEthicsAccounting validates the §A model: shuffled per-server query
// order and the polite-scan wall-clock estimate.
func TestEthicsAccounting(t *testing.T) {
	fx := newCollectorFixture(t)
	col := NewCollector(fx.cfg)
	// Distinct servers get distinct (but deterministic) target orders.
	o1 := col.shuffledTargets(nil, fx.urNS.Addr)
	o2 := col.shuffledTargets(nil, fx.protNS.Addr)
	if len(o1) != len(fx.cfg.Targets) {
		t.Fatalf("order length %d", len(o1))
	}
	again := col.shuffledTargets(nil, fx.urNS.Addr)
	for i := range o1 {
		if o1[i] != again[i] {
			t.Fatal("shuffle not deterministic per server")
		}
	}
	// The two orders should differ for any non-trivial list; with 2 targets
	// they may coincide, so only check the multiset is preserved.
	seen := map[dns.Name]bool{}
	for _, d := range o2 {
		seen[fx.cfg.Targets[d]] = true
	}
	if len(seen) != len(fx.cfg.Targets) {
		t.Error("shuffle lost targets")
	}

	col, _, _ = sweepNameservers(t, fx.cfg)
	est := col.PoliteScanEstimate()
	// Each NS is asked at most (2 targets + the canary) x 2 types; at the
	// default 130s interval the polite estimate must be a positive multiple
	// of it, no larger than the busiest server's plan.
	perServer := (len(fx.cfg.Targets) + 1) * len(fx.cfg.queryTypes())
	if est <= 0 || est > time.Duration(perServer)*fx.cfg.politeInterval() {
		t.Errorf("polite estimate = %v", est)
	}
	if est%fx.cfg.politeInterval() != 0 {
		t.Errorf("estimate %v not a multiple of the interval", est)
	}
	// A custom interval is honoured.
	fx.cfg.PoliteInterval = time.Second
	col2, _, _ := sweepNameservers(t, fx.cfg)
	if col2.PoliteScanEstimate() >= est {
		t.Error("shorter interval did not shrink the estimate")
	}
}
