package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/simnet"
)

// chaosFixture wires a mid-size measurement surface for fault-matrix runs:
// six nameservers all carrying the same undelegated zone replica, one open
// resolver answering the legitimate addresses, twelve targets. Every genuine
// rdata string is recorded so tests can assert that no spoofed or garbage
// response ever surfaces as a collected record.
type chaosFixture struct {
	cfg      *Config
	fabric   *simnet.Fabric
	nsAddrs  []netip.Addr
	resolver netip.Addr
	genuine  map[string]bool
}

func newChaosFixture(t *testing.T, seed int64) *chaosFixture {
	t.Helper()
	const numNS, numTargets = 6, 12
	fabric := simnet.New(seed)
	fx := &chaosFixture{fabric: fabric, genuine: map[string]bool{}}

	hosted := make(map[dns.Name]netip.Addr, numTargets)
	legit := make(map[dns.Name]netip.Addr, numTargets)
	targets := make([]dns.Name, 0, numTargets)
	for j := 0; j < numTargets; j++ {
		name := dns.Name(fmt.Sprintf("t%02d.example", j))
		targets = append(targets, name)
		hosted[name] = netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", j+1))
		legit[name] = netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", j+1))
		fx.genuine[(&dns.A{Addr: hosted[name]}).String()] = true
		fx.genuine[dns.NewTXT("v=spf1 ip4:"+hosted[name].String()+" -all").String()] = true
	}

	zoneFor := func(answers map[dns.Name]netip.Addr) dnsio.ResponderFunc {
		return func(_ netip.Addr, q *dns.Message) *dns.Message {
			r := q.Reply()
			addr, ok := answers[q.Question().Name]
			if !ok {
				r.Header.RCode = dns.RCodeNXDomain
				return r
			}
			switch q.Question().Type {
			case dns.TypeA:
				r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name,
					Class: dns.ClassINET, TTL: 300, Data: &dns.A{Addr: addr}})
			case dns.TypeTXT:
				r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name,
					Class: dns.ClassINET, TTL: 300,
					Data: dns.NewTXT("v=spf1 ip4:" + addr.String() + " -all")})
			}
			return r
		}
	}

	var nss []NameserverInfo
	for i := 0; i < numNS; i++ {
		addr := netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", i+1))
		if _, err := dnsio.AttachSim(fabric, addr, zoneFor(hosted)); err != nil {
			t.Fatal(err)
		}
		fx.nsAddrs = append(fx.nsAddrs, addr)
		nss = append(nss, NameserverInfo{Addr: addr,
			Host: dns.Name(fmt.Sprintf("ns%d.chaos.test", i+1)), Provider: fmt.Sprintf("P%d", i%3)})
	}
	fx.resolver = netip.MustParseAddr("10.0.1.1")
	if _, err := dnsio.AttachSim(fabric, fx.resolver, zoneFor(legit)); err != nil {
		t.Fatal(err)
	}

	fx.cfg = &Config{
		Fabric:        fabric,
		IPDB:          ipam.New(),
		SrcAddr:       netip.MustParseAddr("10.0.2.1"),
		Targets:       targets,
		Nameservers:   nss,
		OpenResolvers: []netip.Addr{fx.resolver},
		Now:           time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC),
		Parallelism:   4,
		Seed:          seed,
	}
	return fx
}

// checkCoverageConsistent asserts the bookkeeping invariants every run must
// satisfy regardless of faults: totals equal the per-server sums, the failure
// histogram accounts for exactly the unanswered probes, and recoveries are a
// subset of answers.
func checkCoverageConsistent(t *testing.T, cov *Coverage) {
	t.Helper()
	if cov == nil {
		t.Fatal("no coverage on result")
	}
	var att, ans, rec int64
	for _, sc := range cov.PerServer {
		if sc.Failed != sc.Attempted-sc.Answered {
			t.Errorf("server %s: failed %d != attempted %d - answered %d",
				sc.Addr, sc.Failed, sc.Attempted, sc.Answered)
		}
		if sc.Recovered > sc.Answered {
			t.Errorf("server %s: recovered %d > answered %d", sc.Addr, sc.Recovered, sc.Answered)
		}
		att += sc.Attempted
		ans += sc.Answered
		rec += sc.Recovered
	}
	if att != cov.Attempted || ans != cov.Answered || rec != cov.RetriedRecovered {
		t.Errorf("per-server sums %d/%d/%d != totals %d/%d/%d",
			att, ans, rec, cov.Attempted, cov.Answered, cov.RetriedRecovered)
	}
	var byClass int64
	for class, n := range cov.FailedByClass {
		if n < 0 {
			t.Errorf("negative count for class %s", class)
		}
		byClass += n
	}
	if byClass != cov.Failed() {
		t.Errorf("failure histogram sums to %d, want %d unanswered probes", byClass, cov.Failed())
	}
}

// checkNoFalseRecords asserts the central chaos invariant: every collected
// record — and in particular every suspicious one — carries rdata the genuine
// zone actually serves. Spoofed, garbage, truncated, or SERVFAIL responses
// must never surface as records.
func checkNoFalseRecords(t *testing.T, fx *chaosFixture, res *Result) {
	t.Helper()
	for _, u := range res.URs {
		if !fx.genuine[u.RData] {
			t.Errorf("fabricated record surfaced: server=%s domain=%s type=%s rdata=%q",
				u.Server.Addr, u.Domain, u.Type, u.RData)
		}
	}
	for _, u := range res.Suspicious {
		if !fx.genuine[u.RData] {
			t.Errorf("fabricated record classified suspicious: %q", u.RData)
		}
	}
}

// chaosPlanSize is the fixture's full probe plan: 6 NS x 12 targets x 2 types
// for the UR sweep, 6 NS x 2 canary probes, 1 resolver x 12 targets x 2 types.
const chaosPlanSize = 6*12*2 + 6*2 + 1*12*2

// TestChaosFaultMatrix runs the full pipeline under one fault family at a
// time and asserts the per-family invariants plus the shared ones: no panic,
// no error, consistent coverage books, no fabricated records.
func TestChaosFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		apply func(fx *chaosFixture)
		check func(t *testing.T, fx *chaosFixture, res *Result)
	}{
		{
			name:  "baseline",
			apply: func(fx *chaosFixture) {},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				cov := res.Coverage
				if cov.Attempted != chaosPlanSize {
					t.Errorf("attempted = %d, want %d", cov.Attempted, chaosPlanSize)
				}
				if cov.Failed() != 0 || cov.RetriedRecovered != 0 || cov.BreakerTrips != 0 {
					t.Errorf("zero-fault run booked failures: %+v", cov)
				}
				if len(res.URs) != 6*12*2 {
					t.Errorf("URs = %d, want %d", len(res.URs), 6*12*2)
				}
			},
		},
		{
			name: "loss30-global",
			apply: func(fx *chaosFixture) {
				fx.fabric.SetLossRate(0.30)
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				if fx.fabric.Drops() == 0 {
					t.Error("loss never fired")
				}
				// Whatever the draws were, the retry + re-queue machinery must
				// hold coverage far above the raw 49% two-attempt floor.
				if r := res.Coverage.AnsweredRatio(); r < 0.90 {
					t.Errorf("answered ratio %.3f under 30%% loss", r)
				}
			},
		},
		{
			name: "wrongid-one-ns",
			apply: func(fx *chaosFixture) {
				dnsio.SetSimFault(fx.fabric, fx.nsAddrs[3], simnet.FaultProfile{WrongIDRate: 1})
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				if res.Coverage.FailedByClass["spoofed"] == 0 {
					t.Error("no spoofed failures recorded")
				}
				for _, u := range res.URs {
					if u.Server.Addr == fx.nsAddrs[3] {
						t.Errorf("record collected from fully-spoofed server: %q", u.RData)
					}
				}
			},
		},
		{
			name: "garbage-one-ns",
			apply: func(fx *chaosFixture) {
				dnsio.SetSimFault(fx.fabric, fx.nsAddrs[2], simnet.FaultProfile{GarbageRate: 1})
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				if res.Coverage.FailedByClass["malformed"] == 0 {
					t.Error("no malformed failures recorded")
				}
				for _, u := range res.URs {
					if u.Server.Addr == fx.nsAddrs[2] {
						t.Errorf("record collected from garbage server: %q", u.RData)
					}
				}
			},
		},
		{
			name: "servfail-one-ns",
			apply: func(fx *chaosFixture) {
				dnsio.SetSimFault(fx.fabric, fx.nsAddrs[1], simnet.FaultProfile{ServFail: true})
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				// SERVFAIL is an answer: the server responded, collection just
				// has nothing to extract. Coverage stays complete.
				if res.Coverage.Failed() != 0 {
					t.Errorf("SERVFAIL booked as failure: %+v", res.Coverage.FailedByClass)
				}
				for _, u := range res.URs {
					if u.Server.Addr == fx.nsAddrs[1] {
						t.Errorf("record collected from SERVFAIL server: %q", u.RData)
					}
				}
			},
		},
		{
			name: "blackhole-one-ns",
			apply: func(fx *chaosFixture) {
				dnsio.SetSimFault(fx.fabric, fx.nsAddrs[0], simnet.FaultProfile{Blackhole: true})
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				cov := res.Coverage
				if cov.BreakerTrips == 0 {
					t.Error("breaker never tripped on a blackholed server")
				}
				if cov.FailedByClass["timeout"]+cov.FailedByClass["breaker-open"] == 0 {
					t.Errorf("blackhole failures misclassified: %+v", cov.FailedByClass)
				}
				for _, sc := range cov.PerServer {
					if sc.Addr == fx.nsAddrs[0] {
						if sc.Answered != 0 {
							t.Errorf("blackholed server answered %d probes", sc.Answered)
						}
					} else if sc.Failed != 0 {
						t.Errorf("healthy server %s lost %d probes", sc.Addr, sc.Failed)
					}
				}
			},
		},
		{
			name: "flapping-two-ns",
			apply: func(fx *chaosFixture) {
				for _, addr := range fx.nsAddrs[:2] {
					dnsio.SetSimFault(fx.fabric, addr, simnet.FaultProfile{FlapPeriod: 16, FlapDown: 3})
				}
			},
			check: func(t *testing.T, fx *chaosFixture, res *Result) {
				cov := res.Coverage
				if cov.RetriedRecovered == 0 {
					t.Error("re-queue pass recovered nothing from flapping servers")
				}
				if r := cov.AnsweredRatio(); r < 0.95 {
					t.Errorf("answered ratio %.3f with two flapping servers", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newChaosFixture(t, 11)
			tc.apply(fx)
			res, err := NewPipeline(fx.cfg).Run(context.Background())
			if err != nil {
				t.Fatalf("pipeline failed under %s: %v", tc.name, err)
			}
			checkCoverageConsistent(t, res.Coverage)
			checkNoFalseRecords(t, fx, res)
			tc.check(t, fx, res)
		})
	}
}

// applyKitchenSink installs the acceptance-gate fault mix: 30% datagram loss
// and 5% wrong-ID spoofing on every endpoint (per-endpoint profiles, so the
// draws are pure functions of the fabric seed), plus two flapping
// nameservers. No global loss is used — the whole scenario is deterministic.
func applyKitchenSink(fx *chaosFixture) {
	base := simnet.FaultProfile{LossRate: 0.30, WrongIDRate: 0.05}
	for i, addr := range fx.nsAddrs {
		p := base
		if i < 2 {
			p.FlapPeriod, p.FlapDown = 16, 3
		}
		dnsio.SetSimFault(fx.fabric, addr, p)
	}
	dnsio.SetSimFault(fx.fabric, fx.resolver, base)
}

// TestChaosKitchenSinkAcceptance is the issue's acceptance gate: the pipeline
// at 30% loss + 5% wrong-ID spoofing + 2 flapping nameservers completes
// without error, reports Answered/Attempted >= 0.95 after the re-queue pass,
// and classifies zero spoofed or garbage responses as suspicious.
func TestChaosKitchenSinkAcceptance(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyKitchenSink(fx)
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("pipeline failed under kitchen-sink faults: %v", err)
	}
	checkCoverageConsistent(t, res.Coverage)
	checkNoFalseRecords(t, fx, res)
	cov := res.Coverage
	if cov.Attempted != chaosPlanSize {
		t.Errorf("attempted = %d, want %d (re-queue retries must not re-count)",
			cov.Attempted, chaosPlanSize)
	}
	if r := cov.AnsweredRatio(); r < 0.95 {
		t.Errorf("answered ratio %.4f < 0.95 acceptance floor (%d/%d, failed: %v)",
			r, cov.Answered, cov.Attempted, cov.FailedByClass)
	}
	if cov.RetriedRecovered == 0 {
		t.Error("re-queue pass recovered nothing at 30% loss")
	}
	if fx.fabric.SpoofsInjected() == 0 {
		t.Error("wrong-ID fault never fired")
	}
	if s := res.CoverageSummary(); !strings.Contains(s, "probes answered") {
		t.Errorf("coverage summary = %q", s)
	}
}

// TestChaosDeterministicAcrossRuns pins chaos reproducibility: two fresh
// worlds built from the same seed under the same per-endpoint fault mix
// produce byte-identical record sets and identical coverage books, worker
// scheduling notwithstanding.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	render := func(res *Result) string {
		var sb strings.Builder
		for _, u := range res.URs {
			fmt.Fprintf(&sb, "%s|%s|%s|%d|%s\n",
				u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData)
		}
		return sb.String()
	}
	run := func() (*Result, error) {
		fx := newChaosFixture(t, 11)
		applyKitchenSink(fx)
		return NewPipeline(fx.cfg).Run(context.Background())
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := render(a), render(b); ra != rb {
		t.Errorf("same-seed chaos runs diverged:\n--- run A ---\n%s--- run B ---\n%s", ra, rb)
	}
	if !reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Errorf("coverage books diverged:\n%+v\n%+v", a.Coverage, b.Coverage)
	}
	if a.Queries != b.Queries {
		t.Errorf("query plans diverged: %d vs %d", a.Queries, b.Queries)
	}
}

// TestChaosZeroFaultOutputUnchanged asserts the no-regression invariant: with
// zero faults installed, a world run through the chaos-hardened collector
// yields the same record set at any parallelism — the resilience machinery is
// entirely latent until something actually fails.
func TestChaosZeroFaultOutputUnchanged(t *testing.T) {
	render := func(res *Result) string {
		var sb strings.Builder
		for _, u := range res.URs {
			fmt.Fprintf(&sb, "%s|%s|%s|%d|%s\n",
				u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData)
		}
		return sb.String()
	}
	var want string
	for i, p := range []int{1, 4, 16} {
		fx := newChaosFixture(t, 11)
		fx.cfg.Parallelism = p
		res, err := NewPipeline(fx.cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if res.Coverage.Failed() != 0 || res.Coverage.BreakerTrips != 0 {
			t.Fatalf("parallelism %d: zero-fault run booked failures", p)
		}
		got := render(res)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d output differs from parallelism 1", p)
		}
	}
}
