package urwatch

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
)

// movableClock is a hand-driven Clock for deterministic staleness tests.
type movableClock struct{ now atomic.Pointer[time.Time] }

func newMovableClock(start time.Time) *movableClock {
	c := &movableClock{}
	c.now.Store(&start)
	return c
}

func (c *movableClock) Now() time.Time { return *c.now.Load() }

func (c *movableClock) Advance(d time.Duration) {
	t := c.Now().Add(d)
	c.now.Store(&t)
}

// TestStaleOnErrorHealthMachine drives the watcher through a sweep-failure
// storm and asserts the three-state machine: ok while fresh, degraded after
// the configured failure streak, stale once the served generation's age
// crosses the bound — and that the previous generation keeps serving
// throughout (stale-on-error), with full recovery on the next success.
func TestStaleOnErrorHealthMachine(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	var failMode atomic.Bool
	stormErr := errors.New("resolver storm")
	var observed []int
	w := NewWatcher(WatcherConfig{
		Sweep: func(ctx context.Context) (*core.Result, error) {
			if failMode.Load() {
				return nil, stormErr
			}
			return &core.Result{}, nil
		},
		Interval: time.Minute,
		Clock:    clk.Now,
		Staleness: &StalenessPolicy{
			MaxStaleness:  10 * time.Minute,
			DegradedAfter: 2,
		},
		OnSweepError: func(err error, consecutive int) {
			if !errors.Is(err, stormErr) {
				t.Errorf("OnSweepError got %v, want the storm error", err)
			}
			observed = append(observed, consecutive)
		},
	})

	if _, err := w.SweepOnce(context.Background()); err != nil {
		t.Fatalf("initial sweep: %v", err)
	}
	if h := w.Health(); h.Status != "ok" || h.Generation != 1 {
		t.Fatalf("after first sweep: status=%s gen=%d, want ok gen=1", h.Status, h.Generation)
	}

	failMode.Store(true)
	if _, err := w.SweepOnce(context.Background()); err == nil {
		t.Fatal("sweep should have failed")
	}
	if h := w.Health(); h.Status != "ok" || h.ConsecutiveFailures != 1 {
		t.Fatalf("after 1 failure: status=%s failures=%d, want ok/1 (DegradedAfter=2)",
			h.Status, h.ConsecutiveFailures)
	}
	_, _ = w.SweepOnce(context.Background())
	h := w.Health()
	if h.Status != "degraded" || h.ConsecutiveFailures != 2 {
		t.Fatalf("after 2 failures: status=%s failures=%d, want degraded/2", h.Status, h.ConsecutiveFailures)
	}
	if h.Generation != 1 {
		t.Fatalf("degraded store serves generation %d, want the last published 1", h.Generation)
	}
	if h.LastError == "" || !strings.Contains(h.LastError, "resolver storm") {
		t.Fatalf("health last_error = %q, want the sweep error", h.LastError)
	}

	// Age past the bound: degraded hardens to stale even with no new errors.
	clk.Advance(10 * time.Minute)
	if h := w.Health(); h.Status != "stale" {
		t.Fatalf("after aging past MaxStaleness: status=%s, want stale", h.Status)
	}
	// Stale-on-error: the store still answers from generation 1.
	if g := w.Store().Current(); g.Seq != 1 {
		t.Fatalf("stale store swapped generations: seq=%d", g.Seq)
	}

	failMode.Store(false)
	if _, err := w.SweepOnce(context.Background()); err != nil {
		t.Fatalf("recovery sweep: %v", err)
	}
	if h := w.Health(); h.Status != "ok" || h.Generation != 2 || h.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery: status=%s gen=%d failures=%d, want ok/2/0",
			h.Status, h.Generation, h.ConsecutiveFailures)
	}
	if want := []int{1, 2}; len(observed) != 2 || observed[0] != want[0] || observed[1] != want[1] {
		t.Fatalf("OnSweepError consecutive counts = %v, want %v", observed, want)
	}
}

// TestStalenessUnsweptGeneration: a store under a staleness bound that still
// serves the never-swept initial generation is stale by definition.
func TestStalenessUnsweptGeneration(t *testing.T) {
	s := NewStore()
	s.SetPolicy(StalenessPolicy{MaxStaleness: time.Minute})
	if st := s.Staleness(time.Unix(1_700_000_000, 0)); st.State != StateStale {
		t.Fatalf("unswept store state = %s, want stale", st.State)
	}
}

// TestRunCountsEarlierSweeps: Run's bound counts the sweeps SweepOnce made
// before it, so a daemon whose first sweep ran before its listeners opened
// sweeps no more under -sweeps 1, and once more under -sweeps 2.
func TestRunCountsEarlierSweeps(t *testing.T) {
	for bound, want := range map[int]int{1: 1, 2: 2} {
		calls := 0
		w := NewWatcher(WatcherConfig{Sweep: func(context.Context) (*core.Result, error) {
			calls++
			return &core.Result{}, nil
		}})
		w.SweepOnce(context.Background())
		if err := w.Run(context.Background(), bound); err != nil || calls != want {
			t.Errorf("SweepOnce, then Run(ctx, %d): %d sweeps (%v), want %d", bound, calls, err, want)
		}
	}
}

// TestHealthPairsSweepsWithTheirGeneration: a sweep counts once its
// generation is published, so a Health reading taken while sweeps run never
// shows sweeps N beside generation N-1. A poller reads Health throughout 100
// sweeps of a 500-record result, whose seal keeps each publish in reach.
func TestHealthPairsSweepsWithTheirGeneration(t *testing.T) {
	urs := make([]*core.UR, 500)
	for i := range urs {
		urs[i] = coldStartUR(fmt.Sprintf("d%d.test", i), fmt.Sprintf("203.0.113.%d", i%250+1), core.CategoryUnknown)
	}
	res := coldStartResult(urs...)
	w := NewWatcher(WatcherConfig{Sweep: func(context.Context) (*core.Result, error) { return res, nil }})
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		readings := 0
		for {
			select {
			case <-stop:
				polled <- readings
				return
			default:
			}
			if h := w.Health(); uint64(h.Sweeps) != h.Generation {
				t.Errorf("Health read %d sweeps beside generation %d", h.Sweeps, h.Generation)
			}
			readings++
		}
	}()
	for range 100 {
		if _, err := w.SweepOnce(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	if readings := <-polled; readings == 0 {
		t.Error("the poller read nothing")
	}
	if h := w.Health(); h.Sweeps != 100 || h.Generation != 100 {
		t.Errorf("after 100 sweeps Health reads %d sweeps, generation %d", h.Sweeps, h.Generation)
	}
}

// TestSerialArithmetic covers the RFC 1982 comparisons across the uint32
// wrap, where plain < inverts.
func TestSerialArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint32
		less bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xFFFFFFFF, 0, true},     // wrap: max serial precedes zero
		{0, 0xFFFFFFFF, false},    // and not vice versa
		{0xFFFFFFF0, 5, true},     // small forward step across the wrap
		{5, 0xFFFFFFF0, false},    //
		{0, 1 << 31, false},       // exactly 2^31 apart: incomparable, not less
		{(1 << 31) + 1, 1, false}, // the mirror case, also exactly 2^31 apart
		{(1 << 31) + 2, 1, true},  // just under 2^31 forward across the wrap
	}
	for _, c := range cases {
		if got := SerialLess(c.a, c.b); got != c.less {
			t.Errorf("SerialLess(%#x, %#x) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if SerialForSeq(1<<32|7) != 7 {
		t.Error("SerialForSeq must truncate onto the 32-bit serial space")
	}
}

// soaFromReply digs the SOA out of a reply's answers.
func soaFromReply(t *testing.T, m *dns.Message) *dns.SOA {
	t.Helper()
	if len(m.Answers) != 1 {
		t.Fatalf("want 1 SOA answer, got %d", len(m.Answers))
	}
	soa, ok := m.Answers[0].Data.(*dns.SOA)
	if !ok {
		t.Fatalf("answer is %T, want SOA", m.Answers[0].Data)
	}
	return soa
}

// TestSOATimersFollowStaleness: with a policy installed, refresh tracks the
// sweep interval, retry is half of it, and expire is the remaining staleness
// budget — counting down as the generation ages, floored at retry.
func TestSOATimersFollowStaleness(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clk := newMovableClock(base)
	s := NewStore()
	s.SetPolicy(StalenessPolicy{
		SweepInterval: 60 * time.Second,
		MaxStaleness:  600 * time.Second,
		Clock:         clk.Now,
	})
	g := SnapshotFromResult(&core.Result{}, 7, base)
	s.Publish(g)
	z := newTestResponder(s)

	askSOA := func() *dns.SOA {
		t.Helper()
		return soaFromReply(t, ask(z, testApex, dns.TypeSOA))
	}
	soa := askSOA()
	if soa.Serial != 7 {
		t.Fatalf("serial = %d, want the generation seq 7", soa.Serial)
	}
	if soa.Refresh != 60 || soa.Retry != 30 {
		t.Fatalf("refresh/retry = %d/%d, want 60/30 (sweep interval and half)", soa.Refresh, soa.Retry)
	}
	if soa.Expire != 600 {
		t.Fatalf("fresh generation expire = %d, want the full budget 600", soa.Expire)
	}

	clk.Advance(250 * time.Second)
	if soa := askSOA(); soa.Expire != 350 {
		t.Fatalf("expire after 250s = %d, want the remaining 350 (not cached)", soa.Expire)
	}

	clk.Advance(349 * time.Second) // age 599s: remaining 1s < retry → floor
	if soa := askSOA(); soa.Expire != 30 {
		t.Fatalf("expire near the bound = %d, want the retry floor 30", soa.Expire)
	}

	clk.Advance(time.Hour) // long past stale: still floored, never zero
	if soa := askSOA(); soa.Expire != 30 {
		t.Fatalf("expire past the bound = %d, want the retry floor 30", soa.Expire)
	}
}

// TestSOATimersLegacyWithoutPolicy pins the pre-policy wire format: stores
// with no staleness policy keep the historical static timers byte-for-byte.
func TestSOATimersLegacyWithoutPolicy(t *testing.T) {
	z := newTestResponder(testStore(t))
	soa := soaFromReply(t, ask(z, testApex, dns.TypeSOA))
	if soa.Refresh != 60 || soa.Retry != 30 || soa.Expire != 600 {
		t.Fatalf("legacy timers = %d/%d/%d, want 60/30/600", soa.Refresh, soa.Retry, soa.Expire)
	}
	if soa.Serial != 1 {
		t.Fatalf("legacy serial = %d, want generation seq 1", soa.Serial)
	}
}

// TestHTTPStalenessHeaders: every API response — including rate-limited and
// error responses — carries the X-URWatch-Staleness / X-URWatch-Health pair.
func TestHTTPStalenessHeaders(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clk := newMovableClock(base)
	s := testStore(t)
	s.SetPolicy(StalenessPolicy{MaxStaleness: time.Minute, Clock: clk.Now})
	// testStore publishes a generation sealed at time.Unix(1, 0) — ancient
	// relative to the clock — so the store reads stale.
	api := &API{Store: s}
	h := api.Handler()

	for _, path := range []string{"/v1/providers", "/v1/lookup", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		hv := rec.Header().Get("X-URWatch-Staleness")
		if hv == "" {
			t.Fatalf("%s: missing X-URWatch-Staleness header", path)
		}
		if !strings.Contains(hv, "state=stale") || !strings.Contains(hv, "gen=1") {
			t.Fatalf("%s: staleness header = %q, want state=stale gen=1", path, hv)
		}
		if got := rec.Header().Get("X-URWatch-Health"); got != "stale" {
			t.Fatalf("%s: X-URWatch-Health = %q, want stale", path, got)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after driving both front-ends and
// checks the exposition carries the serving counters, staleness gauges, and
// latency summaries.
func TestMetricsEndpoint(t *testing.T) {
	s := testStore(t)
	m := NewMetrics()
	z := newTestResponder(s)
	z.Metrics = m

	// Three urwatch queries (one NXDOMAIN), one urbl, one refused (outside
	// the apex is refused before zone classification — use a urbl miss too).
	ask(z, DomainName("evil.test", testApex), dns.TypeA)
	ask(z, DomainName("evil.test", testApex), dns.TypeTXT)
	ask(z, DomainName("absent.test", testApex), dns.TypeA)
	ask(z, "7.100.51.198.urbl."+testApex, dns.TypeA)

	api := &API{Store: s, Metrics: m}
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		`urwatch_dns_queries_total{zone="urwatch"} 3`,
		`urwatch_dns_queries_total{zone="urbl"} 1`,
		`urwatch_dns_nxdomain_total{zone="urwatch"} 1`,
		`urwatch_generation_seq 1`,
		`urwatch_health_state 0`,
		fmt.Sprintf("urwatch_verdicts %d", s.Current().Total()),
		`urwatch_dns_latency_seconds_count 4`,
		`urwatch_cache_hit_ratio`,
		`urwatch_xfr_total{outcome="served"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

// TestZoneACLGatesQueries: with a zone ACL installed, non-matching sources
// get REFUSED, matching and transfer-allowlisted sources are admitted.
func TestZoneACLGatesQueries(t *testing.T) {
	z := newTestResponder(testStore(t))
	z.ZoneACL = mustACL("10.0.0.0/8")
	z.XferACL = mustACL("192.0.2.53")

	q := dns.NewQuery(1, DomainName("evil.test", testApex), dns.TypeA)
	if r := z.HandleQuery(netip.MustParseAddr("10.1.2.3"), q); r.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("zone-allowlisted client: rcode %s, want NOERROR", r.Header.RCode)
	}
	if r := z.HandleQuery(netip.MustParseAddr("203.0.113.50"), q); r.Header.RCode != dns.RCodeRefused {
		t.Fatalf("non-allowlisted client: rcode %s, want REFUSED", r.Header.RCode)
	}
	// A transfer-allowlisted mirror must be able to poll the SOA.
	if r := z.HandleQuery(netip.MustParseAddr("192.0.2.53"), q); r.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("xfr-allowlisted client: rcode %s, want NOERROR", r.Header.RCode)
	}
}

// TestRestartWhileDegraded is the cold-start robustness walkthrough: a
// daemon that dies and restarts long after its last successful sweep comes
// back up serving the restored snapshot in the stale state — answers flow
// immediately, /v1/health says so — and the first successful sweep returns
// it to ok.
func TestRestartWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	res := coldStartResult(coldStartUR("evil.test", "203.0.113.10", core.CategoryMalicious))
	policy := &StalenessPolicy{
		SweepInterval: time.Minute,
		MaxStaleness:  5 * time.Minute,
		DegradedAfter: 2,
	}

	// First life: one good sweep, persisted by the -snapshot-dir hook.
	w1 := NewWatcher(WatcherConfig{
		Sweep:     func(ctx context.Context) (*core.Result, error) { return res, nil },
		Clock:     clk.Now,
		Staleness: policy,
		OnGeneration: func(g *Generation, d *GenDiff) {
			if _, err := SaveGeneration(dir, g); err != nil {
				t.Errorf("snapshot: %v", err)
			}
		},
	})
	if _, err := w1.SweepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Downtime: the process is gone for four times the staleness budget.
	clk.Advance(20 * time.Minute)

	// Second life: restore before any sweep has a chance to run.
	w2 := NewWatcher(WatcherConfig{
		Sweep:     func(ctx context.Context) (*core.Result, error) { return res, nil },
		Clock:     clk.Now,
		Staleness: policy,
	})
	restored, _, err := LoadLatestSnapshot(dir)
	if err != nil || restored == nil {
		t.Fatalf("restore: %v", err)
	}
	w2.Store().Restore(restored)

	st := w2.Store().Staleness(clk.Now())
	if st.State != StateStale || st.Generation != 1 {
		t.Fatalf("cold start = %s at generation %d, want stale at 1", st.State, st.Generation)
	}
	if h := w2.Health(); h.Status != "stale" || h.Generation != 1 {
		t.Fatalf("health = %q gen %d, want stale gen 1", h.Status, h.Generation)
	}

	// Stale, but serving: the restored data answers immediately.
	z := &ZoneResponder{Apex: testApex, Store: w2.Store()}
	r := z.HandleQuery(netip.MustParseAddr("10.0.0.1"),
		dns.NewQuery(1, DomainName("evil.test", testApex), dns.TypeA))
	if r.Header.RCode != dns.RCodeSuccess || len(r.Answers) == 0 {
		t.Fatalf("stale store answered rcode %s with %d answers, want NOERROR with data",
			r.Header.RCode, len(r.Answers))
	}

	// The first successful sweep recovers the daemon to ok on generation 2.
	if _, err := w2.SweepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = w2.Store().Staleness(clk.Now())
	if st.State != StateOK || st.Generation != 2 || st.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery sweep: %s gen %d failures %d, want ok gen 2 failures 0",
			st.State, st.Generation, st.ConsecutiveFailures)
	}
}
