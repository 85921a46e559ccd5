package urwatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/hosting"
	"repro/internal/scenario"
	"repro/internal/threatintel"
)

// TestServeAcceptance is the subsystem's end-to-end check: a real world is
// swept three times with mutations between sweeps (a UR planted, an IP
// intel-flagged, the planted UR removed) while mixed HTTP and DNSBL load
// runs continuously against the store. It asserts
//
//   - zero dropped verdicts: every request in flight across all three
//     generation swaps gets a full answer (no 5xx, no REFUSED/SERVFAIL),
//   - the generation window: every response's generation is between the
//     store's generation before and after the request — N or N+1, never torn,
//   - diff correctness: each published diff equals a from-scratch Diff of the
//     retained generation pair, and the mutations show up as the right
//     ur_appeared / class_changed / ur_removed events.
func TestServeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-world acceptance test")
	}
	w, err := scenario.Generate(scenario.Tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.URHunterConfig()

	type published struct {
		g *Generation
		d *GenDiff
	}
	var pubMu sync.Mutex
	var pubs []published
	watcher := NewWatcher(WatcherConfig{
		Sweep: func(ctx context.Context) (*core.Result, error) {
			return core.NewPipeline(cfg).Run(ctx)
		},
		OnGeneration: func(g *Generation, d *GenDiff) {
			pubMu.Lock()
			pubs = append(pubs, published{g, d})
			pubMu.Unlock()
		},
	})
	store := watcher.Store()
	gen0 := store.Current()

	const apex = dns.Name("feed.test")
	zr := &ZoneResponder{Apex: apex, Store: store}
	api := &API{Store: store, Watcher: watcher, Cache: NewResponseCache(0)}
	hs := httptest.NewServer(api.Handler())
	defer hs.Close()

	// --- continuous mixed load ------------------------------------------
	var (
		httpReqs, dnsReqs atomic.Int64
		failures          atomic.Int64
		failMu            sync.Mutex
		firstFailure      string
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		failMu.Lock()
		if firstFailure == "" {
			firstFailure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{"/v1/providers", "/v1/health", "/v1/events?since=0&max=5",
		"/v1/lookup?domain=ibm.com", "/v1/coverage"}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) { // HTTP clients
			defer wg.Done()
			cli := hs.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := store.Current().Seq
				resp, err := cli.Get(hs.URL + paths[i%len(paths)])
				if err != nil {
					fail("http client %d: %v", c, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				httpReqs.Add(1)
				if resp.StatusCode >= 500 {
					fail("http %s: status %d", paths[i%len(paths)], resp.StatusCode)
					continue
				}
				var env struct {
					Generation uint64 `json:"generation"`
				}
				if json.Unmarshal(body, &env) == nil && env.Generation > 0 {
					if after := store.Current().Seq; env.Generation < before || env.Generation > after {
						fail("http torn generation %d outside [%d, %d]", env.Generation, before, after)
					}
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) { // DNSBL clients
			defer wg.Done()
			src := netip.MustParseAddr(fmt.Sprintf("10.1.1.%d", c+1))
			for i := uint16(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := store.Current().Seq
				resp := zr.HandleQuery(src, dns.NewQuery(i, "gen."+apex, dns.TypeTXT))
				dnsReqs.Add(1)
				if resp.Header.RCode != dns.RCodeSuccess {
					fail("dns gen query rcode %s", resp.Header.RCode)
					continue
				}
				var got uint64
				if txt, ok := resp.Answers[0].Data.(*dns.TXT); ok {
					fmt.Sscanf(txt.Strings[0], "gen=%d", &got)
				}
				if after := store.Current().Seq; got < before || got > after {
					fail("dns torn generation %d outside [%d, %d]", got, before, after)
				}
				// Exercise listing answers too; rcode may be NXDOMAIN for
				// unlisted names, but never REFUSED/SERVFAIL in-zone.
				lq := zr.HandleQuery(src, dns.NewQuery(i, DomainName("ibm.com", apex), dns.TypeA))
				dnsReqs.Add(1)
				if lq.Header.RCode == dns.RCodeRefused || lq.Header.RCode == dns.RCodeServFail {
					fail("dns listing query rcode %s", lq.Header.RCode)
				}
				if i%64 == 0 {
					// Yield so the in-process DNS loop does not starve the
					// HTTP clients, which pay real socket round-trips.
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}

	// --- three sweeps with mutations between them -----------------------
	sweep := func() *Generation {
		t.Helper()
		if _, err := watcher.SweepOnce(context.Background()); err != nil {
			t.Fatalf("sweep: %v", err)
		}
		// Let the load clients observe this generation before the next swap;
		// tiny-world sweeps alone finish in single-digit milliseconds.
		time.Sleep(50 * time.Millisecond)
		return store.Current()
	}
	g1 := sweep()
	if g1.Seq != 1 || g1.Total() == 0 {
		t.Fatalf("generation 1: seq=%d total=%d", g1.Seq, g1.Total())
	}
	// The flat layout's budget on real sweep output: the packed record, its
	// share of the interned strings, the IP arena and the index (DESIGN §11
	// measures ~120 B against ~217 B for the map-era indexes it replaced).
	if per := g1.SizeBytes() / g1.Total(); per > 256 {
		t.Errorf("generation 1 retains %d bytes per verdict over %d verdicts, budget 256", per, g1.Total())
	}

	// Mutation 1: plant a fresh UR at ClouDNS for a target domain the
	// provider does not yet host.
	cloudns := w.ProviderByName["ClouDNS"]
	if cloudns == nil {
		t.Fatal("no ClouDNS in world")
	}
	cloudns.OpenAccount("urwatch-acceptance", false)
	var hz *hosting.HostedZone
	var planted dns.Name
	for _, target := range w.Targets {
		if len(cloudns.ZonesFor(target)) > 0 {
			continue
		}
		z, err := cloudns.CreateZone("urwatch-acceptance", target)
		if err != nil {
			continue
		}
		hz, planted = z, target
		break
	}
	if hz == nil {
		t.Fatal("no target available for planting a UR")
	}
	hz.Zone.MustAddRR(fmt.Sprintf("%s 300 IN A 203.0.113.222", planted))

	// Mutation 2: a vendor flags the corresponding IP of some so-far-unknown
	// verdict — next sweep must reclassify it malicious.
	var flagged *Verdict
	vt, _ := w.Intel.Vendor("VirusTotal")
scan:
	for _, target := range w.Targets {
		vs := g1.Domain(target)
		for i := 0; i < vs.Len(); i++ {
			v := vs.At(i)
			if v.Category() == core.CategoryUnknown && len(v.IPs()) > 0 && !v.ByIntel() && !v.ByIDS() {
				flagged = v.Verdict()
				break scan
			}
		}
	}
	if flagged == nil {
		t.Fatal("generation 1 has no unknown verdict with corresponding IPs to flag")
	}
	vt.Flag(flagged.IPs[0], threatintel.TagC2)

	g2 := sweep()
	if g2.Seq != 2 {
		t.Fatalf("generation 2 seq = %d", g2.Seq)
	}

	// Mutation 3: retract the planted UR.
	hz.Zone.RemoveRRset(planted, dns.TypeA)
	g3 := sweep()
	if g3.Seq != 3 {
		t.Fatalf("generation 3 seq = %d", g3.Seq)
	}

	close(stop)
	wg.Wait()

	// --- serving invariants ---------------------------------------------
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d load failures across swaps; first: %s", n, firstFailure)
	}
	if httpReqs.Load() == 0 || dnsReqs.Load() == 0 {
		t.Fatalf("load did not run: http=%d dns=%d", httpReqs.Load(), dnsReqs.Load())
	}
	t.Logf("served %d HTTP + %d DNS requests across 3 generation swaps",
		httpReqs.Load(), dnsReqs.Load())

	// --- diff correctness ------------------------------------------------
	pubMu.Lock()
	defer pubMu.Unlock()
	if len(pubs) != 3 {
		t.Fatalf("published %d generations, want 3", len(pubs))
	}
	prevs := []*Generation{gen0, pubs[0].g, pubs[1].g}
	for i, p := range pubs {
		if fresh := Diff(prevs[i], p.g); !p.d.Same(fresh) {
			t.Errorf("generation %d: published diff (%d events) != from-scratch diff (%d events)",
				p.g.Seq, len(p.d.Events), len(fresh.Events))
		}
	}

	hasEvent := func(d *GenDiff, kind EventKind, match func(Event) bool) bool {
		for _, e := range d.Events {
			if e.Kind == kind && match(e) {
				return true
			}
		}
		return false
	}
	plantedKey := func(e Event) bool {
		return e.Domain == string(planted) && e.RData == "203.0.113.222"
	}
	if !hasEvent(pubs[1].d, EventAppeared, plantedKey) {
		t.Errorf("generation 2 diff missing ur_appeared for planted %s", planted)
	}
	if !hasEvent(pubs[1].d, EventReclassified, func(e Event) bool { return e.Key == flagged.Key() }) {
		t.Errorf("generation 2 diff missing class_changed for flagged %s", flagged.Key())
	}
	if !hasEvent(pubs[2].d, EventRemoved, plantedKey) {
		t.Errorf("generation 3 diff missing ur_removed for planted %s", planted)
	}

	// The reclassified verdict must now serve as malicious, end to end.
	if v, ok := g3.Find(flagged.Domain, flagged.Server, flagged.Type, flagged.RData); !ok {
		t.Errorf("flagged verdict vanished from generation 3")
	} else if v.Category() != core.CategoryMalicious {
		t.Errorf("flagged verdict category = %v, want malicious", v.Category())
	}

	// Event log seqs are strictly increasing across the whole run.
	events, _ := store.Log().Since(0, 0)
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event log seq not increasing at %d", i)
		}
	}

	// Spot-check the DNSBL view of the planted lifecycle: gone in gen 3.
	resp := zr.HandleQuery(netip.MustParseAddr("10.1.1.9"),
		dns.NewQuery(9, DomainName(planted, apex), dns.TypeA))
	if g3.Domain(planted).Len() == 0 && resp.Header.RCode != dns.RCodeNXDomain {
		t.Errorf("planted domain still listed after removal: rcode %s", resp.Header.RCode)
	}
}
