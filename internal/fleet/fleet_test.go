package fleet

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/ipam"
	"repro/internal/simnet"
)

// fleetFixture wires a 12-unit plan (2 open resolvers + 10 nameservers, 8
// targets) over its own fabric. Every in-test "process" — the coordinator
// and each worker — builds its own fixture from the same seed: separate
// fabrics with identical deterministic worlds, exactly what separate OS
// processes would see.
type fleetFixture struct {
	cfg       *core.Config
	fabric    *simnet.Fabric
	nsAddrs   []netip.Addr
	resolvers []netip.Addr
}

func newFleetFixture(t testing.TB, seed int64, chaos bool) *fleetFixture {
	t.Helper()
	const numNS, numResolvers, numTargets = 10, 2, 8
	fabric := simnet.New(seed)
	fx := &fleetFixture{fabric: fabric}

	hosted := make(map[dns.Name]netip.Addr, numTargets)
	legit := make(map[dns.Name]netip.Addr, numTargets)
	targets := make([]dns.Name, 0, numTargets)
	for j := 0; j < numTargets; j++ {
		name := dns.Name(fmt.Sprintf("t%02d.example", j))
		targets = append(targets, name)
		hosted[name] = netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", j+1))
		legit[name] = netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", j+1))
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

	var nss []core.NameserverInfo
	for i := 0; i < numNS; i++ {
		addr := netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", i+1))
		if _, err := dnsio.AttachSim(fabric, addr, zoneFor(hosted)); err != nil {
			t.Fatal(err)
		}
		fx.nsAddrs = append(fx.nsAddrs, addr)
		nss = append(nss, core.NameserverInfo{Addr: addr,
			Host: dns.Name(fmt.Sprintf("ns%d.fleet.test", i+1)), Provider: fmt.Sprintf("P%d", i%3)})
	}
	for i := 0; i < numResolvers; i++ {
		addr := netip.MustParseAddr(fmt.Sprintf("10.0.1.%d", i+1))
		if _, err := dnsio.AttachSim(fabric, addr, zoneFor(legit)); err != nil {
			t.Fatal(err)
		}
		fx.resolvers = append(fx.resolvers, addr)
	}

	fx.cfg = &core.Config{
		Fabric:        fabric,
		IPDB:          ipam.New(),
		SrcAddr:       netip.MustParseAddr("10.0.2.1"),
		Targets:       targets,
		Nameservers:   nss,
		OpenResolvers: fx.resolvers,
		Now:           time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC),
		Parallelism:   4,
		Seed:          seed,
	}
	if chaos {
		// Sequence-independent faults only: these answer the same way no
		// matter how many exchanges preceded a probe, so a re-shard (whose
		// per-endpoint sequence counters reset per process) sees the exact
		// failure surface the single-process run saw.
		dnsio.SetSimFault(fabric, fx.nsAddrs[1], simnet.FaultProfile{ServFail: true})
		dnsio.SetSimFault(fabric, fx.nsAddrs[0], simnet.FaultProfile{Blackhole: true})
		dnsio.SetSimFault(fabric, fx.nsAddrs[3], simnet.FaultProfile{WrongIDRate: 1})
	}
	return fx
}

// renderRecords fingerprints a result's record content — the byte-identity
// contract's surface.
func renderRecords(res *core.Result) string {
	var sb strings.Builder
	for _, u := range res.URs {
		fmt.Fprintf(&sb, "ur|%s|%s|%s|%d|%s\n",
			u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData)
	}
	for _, u := range res.Suspicious {
		fmt.Fprintf(&sb, "sus|%s|%s|%s|%d|%s|%s\n",
			u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData, u.Category)
	}
	return sb.String()
}

// baselineRun is the single-process reference: one fixture, one pipeline.
func baselineRun(t *testing.T, seed int64, chaos bool) string {
	t.Helper()
	fx := newFleetFixture(t, seed, chaos)
	res, err := core.NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return renderRecords(res)
}

// logCapture collects coordinator/worker log lines for assertions.
type logCapture struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	fmt.Fprintf(&l.sb, format+"\n", args...)
	l.mu.Unlock()
}

func (l *logCapture) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}

// fleetRun drives a full coordinator+workers round in-process and returns
// the merged result's fingerprint. workers customises per-worker options
// (parallelism); transports optionally overrides a worker's transport.
func fleetRun(t *testing.T, seed int64, chaos bool, dir string, co *Coordinator, workers []WorkerOptions, transports []dnsio.Transport) (*core.Result, []error) {
	t.Helper()
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// The fixture's shards sweep in about a millisecond, so without a gate the
	// first worker to connect can finish the whole plan before the next one
	// has dialed (which then finds the listener closed). Hand out no work
	// until every worker is connected.
	co.ln = &gatedListener{Listener: co.ln, hold: len(workers)}
	ctx := context.Background()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wo := range workers {
		wfx := newFleetFixture(t, seed, chaos)
		if transports != nil && transports[i] != nil {
			wfx.cfg.Transport = transports[i]
		}
		wg.Add(1)
		go func(i int, wo WorkerOptions, cfg *core.Config) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, co.Addr().String(), cfg, wo)
		}(i, wo, wfx.cfg)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	res, err := co.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res, errs
}

// gatedListener holds back its first Accept until hold connections have
// arrived, then hands them out in arrival order.
type gatedListener struct {
	net.Listener
	hold  int
	ready []net.Conn
}

func (g *gatedListener) Accept() (net.Conn, error) {
	for ; g.hold > 0; g.hold-- {
		c, err := g.Listener.Accept()
		if err != nil {
			return nil, err
		}
		g.ready = append(g.ready, c)
	}
	if len(g.ready) > 0 {
		c := g.ready[0]
		g.ready = g.ready[1:]
		return c, nil
	}
	return g.Listener.Accept()
}

// waitForLog polls the captured log until substr appears.
func waitForLog(t *testing.T, lg *logCapture, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(lg.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in log:\n%s", substr, lg.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSplitPlan pins the contiguous near-even cut.
func TestSplitPlan(t *testing.T) {
	for _, tc := range []struct {
		units, n int
		sizes    []int
	}{
		{12, 1, []int{12}},
		{12, 2, []int{6, 6}},
		{12, 4, []int{3, 3, 3, 3}},
		{12, 7, []int{2, 2, 2, 2, 2, 1, 1}},
		{3, 8, []int{1, 1, 1}},
		{5, 0, []int{5}},
	} {
		got := SplitPlan(tc.units, tc.n)
		if len(got) != len(tc.sizes) {
			t.Fatalf("SplitPlan(%d,%d): %d shards, want %d", tc.units, tc.n, len(got), len(tc.sizes))
		}
		lo := 0
		for i, sd := range got {
			if sd.Lo != lo || sd.Hi-sd.Lo != tc.sizes[i] || sd.Units != tc.units || sd.Index != i {
				t.Errorf("SplitPlan(%d,%d)[%d] = %+v, want lo=%d size=%d", tc.units, tc.n, i, sd, lo, tc.sizes[i])
			}
			lo = sd.Hi
		}
		if lo != tc.units {
			t.Errorf("SplitPlan(%d,%d) covers [0,%d), want [0,%d)", tc.units, tc.n, lo, tc.units)
		}
	}
}

// TestFleetByteIdenticalAcrossShards is the re-shard determinism pin: the
// merged report from 1, 2, 4, and 7 shards (uneven split), at parallelism 1
// and 4, chaos on, must be byte-identical to the single-process run.
func TestFleetByteIdenticalAcrossShards(t *testing.T) {
	const seed = 11
	want := baselineRun(t, seed, true)
	for _, shards := range []int{1, 2, 4, 7} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/par=%d", shards, par), func(t *testing.T) {
				dir := t.TempDir()
				var lg logCapture
				co, err := NewCoordinator(newFleetFixture(t, seed, true).cfg, CoordOptions{
					Dir: dir, Shards: shards, CheckpointEvery: 8,
					StealAfter: time.Minute, Logf: lg.logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				nWorkers := 2
				if shards == 1 {
					nWorkers = 1
				}
				workers := make([]WorkerOptions, nWorkers)
				for i := range workers {
					workers[i] = WorkerOptions{Name: fmt.Sprintf("w%d", i), Parallelism: par, CheckpointEvery: 8, Logf: lg.logf}
				}
				res, errs := fleetRun(t, seed, true, dir, co, workers, nil)
				for i, err := range errs {
					if err != nil {
						t.Errorf("worker %d: %v", i, err)
					}
				}
				if got := renderRecords(res); got != want {
					t.Errorf("merged report differs from single-process run (%d shards, par %d):\ngot  %d bytes\nwant %d bytes\nlog:\n%s",
						shards, par, len(got), len(want), lg.String())
				}
			})
		}
	}
}

// TestFleetByteIdenticalNoChaos covers the fault-free plan point of the
// (shards × parallelism × chaos) grid.
func TestFleetByteIdenticalNoChaos(t *testing.T) {
	const seed = 23
	want := baselineRun(t, seed, false)
	var lg logCapture
	co, err := NewCoordinator(newFleetFixture(t, seed, false).cfg, CoordOptions{
		Dir: t.TempDir(), Shards: 4, CheckpointEvery: 8, StealAfter: time.Minute, Logf: lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	workers := []WorkerOptions{
		{Name: "w0", Parallelism: 4, CheckpointEvery: 8},
		{Name: "w1", Parallelism: 4, CheckpointEvery: 8},
	}
	res, errs := fleetRun(t, seed, false, "", co, workers, nil)
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := renderRecords(res); got != want {
		t.Errorf("merged no-chaos report differs from single-process run\nlog:\n%s", lg.String())
	}
}

// TestFleetKillWorkerMidShard kills one worker partway through its shard
// (journal at ~30 records, checkpoints every 8): the coordinator must
// re-issue the shard from its last checkpoint to the surviving worker, and
// the merged report must still be byte-identical.
//
// The victim is whoever holds shard 0, and that is always the doomed worker:
// it is the only one connected when shard 0 is handed out, and the survivor
// dials only once the coordinator has logged that assignment. Started
// together, which worker received which shard was a connection-order race,
// and a survivor that swept both millisecond-long shards first left the
// doomed worker nothing to die in.
func TestFleetKillWorkerMidShard(t *testing.T) {
	const seed = 11
	want := baselineRun(t, seed, true)
	var lg logCapture
	co, err := NewCoordinator(newFleetFixture(t, seed, true).cfg, CoordOptions{
		Dir: t.TempDir(), Shards: 2, CheckpointEvery: 8, StealAfter: time.Minute, Logf: lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()

	var wg sync.WaitGroup
	var doomedErr, survivorErr error
	worker := func(errp *error, opts WorkerOptions) {
		cfg := newFleetFixture(t, seed, true).cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			*errp = RunWorker(ctx, co.Addr().String(), cfg, opts)
		}()
	}
	worker(&doomedErr, WorkerOptions{Name: "doomed", Parallelism: 2, CheckpointEvery: 8, DieAtRecords: 30, Logf: lg.logf})
	waitForLog(t, &lg, "shard 0 units [0,6) -> worker doomed")
	worker(&survivorErr, WorkerOptions{Name: "survivor", Parallelism: 2, CheckpointEvery: 8, Logf: lg.logf})
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	if doomedErr == nil {
		t.Error("doomed worker did not die")
	}
	if survivorErr != nil {
		t.Errorf("survivor: %v", survivorErr)
	}
	res, err := co.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	log := lg.String()
	if !strings.Contains(log, "shard 0 stolen from dead worker doomed") {
		t.Errorf("no dead-worker steal of shard 0 logged:\n%s", log)
	}
	if got := renderRecords(res); got != want {
		t.Errorf("merged report differs after worker kill + re-issue\nlog:\n%s", log)
	}
}

// slowTransport delays every exchange — an artificial straggler.
type slowTransport struct {
	inner dnsio.Transport
	delay time.Duration
}

func (s *slowTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	time.Sleep(s.delay)
	return s.inner.Exchange(ctx, buf, server, packed, tcp)
}

// TestFleetStragglerSteal runs one shard with a deliberately slow worker and
// a fast idle one: the coordinator must steal the straggler's tail
// (split-at-checkpoint) for the idle worker, and the first-wins merge must
// keep the report byte-identical despite the overlap.
func TestFleetStragglerSteal(t *testing.T) {
	const seed = 11
	want := baselineRun(t, seed, true)
	var lg logCapture
	cofx := newFleetFixture(t, seed, true)
	co, err := NewCoordinator(cofx.cfg, CoordOptions{
		Dir: t.TempDir(), Shards: 1, CheckpointEvery: 8,
		StealAfter: 30 * time.Millisecond, MinStealUnits: 2, Logf: lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	slowFx := newFleetFixture(t, seed, true)
	slowFx.cfg.Transport = &slowTransport{
		inner: &dnsio.SimTransport{Fabric: slowFx.fabric, Src: slowFx.cfg.SrcAddr},
		delay: 2 * time.Millisecond,
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()

	var wg sync.WaitGroup
	var stragglerErr, thiefErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		stragglerErr = RunWorker(ctx, co.Addr().String(), slowFx.cfg,
			WorkerOptions{Name: "straggler", Parallelism: 1, CheckpointEvery: 8, Logf: lg.logf})
	}()
	// The thief must find the straggler already holding the only shard —
	// started together, the fast worker can win the race for it and just
	// sweep everything itself, and there is nothing to steal.
	waitForLog(t, &lg, "-> worker straggler")
	thiefFx := newFleetFixture(t, seed, true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		thiefErr = RunWorker(ctx, co.Addr().String(), thiefFx.cfg,
			WorkerOptions{Name: "thief", Parallelism: 4, CheckpointEvery: 8, Logf: lg.logf})
	}()
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	if stragglerErr != nil {
		t.Errorf("straggler: %v", stragglerErr)
	}
	if thiefErr != nil {
		t.Errorf("thief: %v", thiefErr)
	}
	res, err := co.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	log := lg.String()
	if !strings.Contains(log, "shard stolen —") {
		t.Errorf("no straggler steal logged:\n%s", log)
	}
	if got := renderRecords(res); got != want {
		t.Errorf("merged report differs after straggler steal\nlog:\n%s", log)
	}
}

// TestFleetCoordinatorRestart interrupts a run (worker dies, coordinator's
// context is cancelled with a shard still pending) and restarts the
// coordinator over the same directory: the restored book must finish the
// remaining shards — resuming the dead worker's journal from its checkpoint
// — and produce the byte-identical merged report.
func TestFleetCoordinatorRestart(t *testing.T) {
	const seed = 11
	want := baselineRun(t, seed, true)
	dir := t.TempDir()

	// Phase 1: one worker that dies mid-shard, then cancel the coordinator.
	var lg1 logCapture
	co1, err := NewCoordinator(newFleetFixture(t, seed, true).cfg, CoordOptions{
		Dir: dir, Shards: 3, CheckpointEvery: 8, StealAfter: time.Minute, Logf: lg1.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- co1.Run(ctx1) }()
	wfx := newFleetFixture(t, seed, true)
	werr := RunWorker(context.Background(), co1.Addr().String(), wfx.cfg,
		WorkerOptions{Name: "doomed", Parallelism: 2, CheckpointEvery: 8, DieAtRecords: 20})
	if werr == nil {
		t.Fatal("phase-1 worker did not die")
	}
	cancel1()
	if err := <-runErr; err == nil {
		t.Fatal("cancelled coordinator returned nil")
	}
	if !strings.Contains(lg1.String(), "stolen from dead worker") {
		t.Errorf("phase 1 never re-pended the dead worker's shard:\n%s", lg1.String())
	}

	// Phase 2: a fresh coordinator over the same directory finishes the job.
	var lg2 logCapture
	co2, err := NewCoordinator(newFleetFixture(t, seed, true).cfg, CoordOptions{
		Dir: dir, Shards: 3, CheckpointEvery: 8, StealAfter: time.Minute, Logf: lg2.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lg2.String(), "restored") {
		t.Errorf("restarted coordinator did not restore its book:\n%s", lg2.String())
	}
	workers := []WorkerOptions{
		{Name: "w0", Parallelism: 2, CheckpointEvery: 8},
		{Name: "w1", Parallelism: 2, CheckpointEvery: 8},
	}
	res, errs := fleetRun(t, seed, true, dir, co2, workers, nil)
	for i, err := range errs {
		if err != nil {
			t.Errorf("phase-2 worker %d: %v", i, err)
		}
	}
	if got := renderRecords(res); got != want {
		t.Errorf("merged report differs after coordinator restart\nphase2 log:\n%s", lg2.String())
	}
}

// TestFleetRejectsMismatchedWorker pins the hello validation: a worker
// configured for a different plan must be rejected with a clear reason.
func TestFleetRejectsMismatchedWorker(t *testing.T) {
	var lg logCapture
	co, err := NewCoordinator(newFleetFixture(t, 11, false).cfg, CoordOptions{
		Dir: t.TempDir(), Shards: 2, StealAfter: time.Minute, Logf: lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()

	other := newFleetFixture(t, 99, false) // different seed → different plan
	werr := RunWorker(ctx, co.Addr().String(), other.cfg, WorkerOptions{Name: "wrong"})
	if werr == nil || !strings.Contains(werr.Error(), "rejected") {
		t.Fatalf("mismatched worker error = %v, want rejection", werr)
	}
	cancel()
	<-runErr
}
