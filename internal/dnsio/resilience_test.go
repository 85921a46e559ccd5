package dnsio

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// scriptTransport plays back a scripted list of outcomes; nil means "answer
// the query correctly".
type scriptTransport struct {
	script []error
	calls  int
}

func (t *scriptTransport) Exchange(_ context.Context, buf []byte, _ netip.AddrPort, packed []byte, _ bool) ([]byte, error) {
	i := t.calls
	t.calls++
	var step error
	if i < len(t.script) {
		step = t.script[i]
	}
	if step != nil {
		return nil, step
	}
	q, err := dns.Unpack(packed)
	if err != nil {
		return nil, err
	}
	return q.Reply().AppendPack(buf[:0])
}

// Instant marks the script transport as non-blocking so no deadline plumbing
// kicks in; combined with no virtualSleeper, backoff uses real timers, so
// tests below that exercise many retries disable it.
func (t *scriptTransport) Instant() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailClass
	}{
		{nil, FailNone},
		{simnet.ErrTimeout, FailTimeout},
		{fmt.Errorf("wrap: %w", simnet.ErrTimeout), FailTimeout},
		{simnet.ErrUnreachable, FailUnreachable},
		{ErrCircuitOpen, FailBreakerOpen},
		{ErrIDMismatch, FailSpoofed},
		{ErrNotResponse, FailSpoofed},
		{ErrQuestionMismatch, FailSpoofed},
		{fmt.Errorf("%w: bad rr", ErrMalformed), FailMalformed},
		{context.DeadlineExceeded, FailTimeout},
		{fmt.Errorf("dial: %w", syscall.ECONNREFUSED), FailUnreachable},
		{errors.New("mystery"), FailOther},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	// Every class has a stable, non-empty name for coverage histograms.
	for fc := FailNone; fc <= FailOther; fc++ {
		if fc.String() == "" {
			t.Errorf("class %d has empty name", fc)
		}
	}
}

func TestIsPermanent(t *testing.T) {
	if !IsPermanent(simnet.ErrUnreachable) || !IsPermanent(ErrCircuitOpen) || !IsPermanent(context.Canceled) {
		t.Error("permanent errors not recognized")
	}
	if IsPermanent(simnet.ErrTimeout) || IsPermanent(ErrIDMismatch) || IsPermanent(nil) {
		t.Error("transient errors misclassified as permanent")
	}
}

// TestPermanentErrorFailsFast pins the satellite fix: ErrUnreachable must not
// burn the retry budget.
func TestPermanentErrorFailsFast(t *testing.T) {
	tr := &scriptTransport{script: []error{
		fmt.Errorf("%w: 192.0.2.99:53", simnet.ErrUnreachable),
		fmt.Errorf("%w: 192.0.2.99:53", simnet.ErrUnreachable),
	}}
	c := NewClient(tr)
	c.Retries = 5
	_, err := c.Query(context.Background(), netip.MustParseAddrPort("192.0.2.99:53"), "x.test", dns.TypeA)
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if tr.calls != 1 {
		t.Errorf("unreachable server probed %d times, want 1", tr.calls)
	}
}

// TestUnreachableFailsFastOnFabric proves the same through the real sim
// transport: one fabric exchange total, despite a generous retry budget.
func TestUnreachableFailsFastOnFabric(t *testing.T) {
	fabric := simnet.New(5)
	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.Retries = 7
	_, err := c.Query(context.Background(), netip.MustParseAddrPort("192.0.2.99:53"), "x.test", dns.TypeA)
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if got := fabric.Exchanges(); got != 1 {
		t.Errorf("fabric exchanges = %d, want 1", got)
	}
}

// TestNegativeRetriesNormalized pins the satellite fix: Retries < 0 used to
// skip the attempt loop entirely and report "failed: %!w(<nil>)".
func TestNegativeRetriesNormalized(t *testing.T) {
	tr := &scriptTransport{script: []error{simnet.ErrTimeout, simnet.ErrTimeout}}
	c := NewClient(tr)
	c.Retries = -3
	_, err := c.Query(context.Background(), netip.MustParseAddrPort("192.0.2.1:53"), "x.test", dns.TypeA)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want the transport's timeout, not a nil wrap", err)
	}
	if tr.calls != 1 {
		t.Errorf("negative retries made %d attempts, want exactly 1", tr.calls)
	}
}

func TestBreakerOpensFailsFastAndRecovers(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, HalfOpenAfter: 2}
	tr := &scriptTransport{script: []error{
		simnet.ErrTimeout, simnet.ErrTimeout, simnet.ErrTimeout, // 3 failures -> open
		nil, // half-open probe succeeds -> closed
	}}
	c := NewClient(tr)
	c.Retries = 0
	c.Backoff = BackoffPolicy{} // keep the test free of real sleeps
	c.Breakers = NewBreakerSet(cfg)
	server := netip.MustParseAddrPort("192.0.2.1:53")
	q := func() error {
		_, err := c.Query(context.Background(), server, "x.test", dns.TypeA)
		return err
	}

	for i := 0; i < cfg.Threshold; i++ {
		if err := q(); !errors.Is(err, simnet.ErrTimeout) {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}
	if !c.Breakers.Open(server.Addr()) {
		t.Fatal("breaker not open after threshold failures")
	}
	if got := c.Breakers.Trips(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}
	// Next HalfOpenAfter-1 calls fail fast without touching the transport.
	callsBefore := tr.calls
	if err := q(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected fast-fail, got %v", err)
	}
	if tr.calls != callsBefore {
		t.Error("fast-fail still touched the transport")
	}
	// The HalfOpenAfter-th suppressed call becomes the half-open probe, the
	// script answers it, and the breaker closes.
	if err := q(); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if c.Breakers.Open(server.Addr()) {
		t.Error("breaker still open after successful probe")
	}
	if err := q(); err != nil {
		t.Errorf("closed breaker blocked a query: %v", err)
	}
	if got := c.Breakers.Trips(); got != 1 {
		t.Errorf("trips after recovery = %d, want 1", got)
	}
}

// TestBackoffDelayDeterministicJitter: the jitter is a pure hash of (seed,
// server, attempt) — same inputs, same delay, bounded by [0.5, 1.5)x.
func TestBackoffDelayDeterministicJitter(t *testing.T) {
	p := DefaultBackoff()
	p.JitterSeed = 42
	server := netip.MustParseAddrPort("192.0.2.7:53")
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Delay(server, attempt)
		d2 := p.Delay(server, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delays differ (%v vs %v)", attempt, d1, d2)
		}
		nominal := p.Base << (attempt - 1)
		if p.Max > 0 && nominal > p.Max {
			nominal = p.Max
		}
		if d1 < nominal/2 || d1 >= nominal+nominal/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d1, nominal/2, nominal+nominal/2)
		}
	}
	if p.Delay(server, 0) != 0 {
		t.Error("attempt 0 should have no delay")
	}
	if (BackoffPolicy{}).Delay(server, 3) != 0 {
		t.Error("zero policy should disable backoff")
	}
	p2 := p
	p2.JitterSeed = 43
	diff := false
	for attempt := 1; attempt <= 6; attempt++ {
		if p.Delay(server, attempt) != p2.Delay(server, attempt) {
			diff = true
		}
	}
	if !diff {
		t.Error("different jitter seeds produced identical schedules")
	}
}

// TestBackoffUsesVirtualClockInSim: retrying against a blackholed sim
// endpoint books backoff on the fabric's virtual clock instead of sleeping.
func TestBackoffUsesVirtualClockInSim(t *testing.T) {
	fabric := simnet.New(5)
	serverIP := netip.MustParseAddr("192.0.2.53")
	detach, err := AttachSim(fabric, serverIP, staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	SetSimFault(fabric, serverIP, simnet.FaultProfile{Blackhole: true})

	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.Retries = 3
	start := time.Now()
	_, qerr := c.Query(context.Background(), netip.AddrPortFrom(serverIP, DNSPort), "x.test", dns.TypeA)
	elapsed := time.Since(start)
	if qerr == nil {
		t.Fatal("blackholed query succeeded")
	}
	// 4 attempts * 20ms base RTT = 80ms on the virtual clock; the backoff
	// schedule (≥25+50+100 ms halved at worst) must push it well past that.
	if v := fabric.VirtualRTT(); v < 150*time.Millisecond {
		t.Errorf("virtual clock = %v, want backoff booked on top of RTT", v)
	}
	// ... and none of it as real wall-clock.
	if elapsed > time.Second {
		t.Errorf("in-sim retries slept for real: %v", elapsed)
	}
}

func TestSetSimFaultCoversBothPorts(t *testing.T) {
	fabric := simnet.New(5)
	addr := netip.MustParseAddr("192.0.2.53")
	SetSimFault(fabric, addr, simnet.FaultProfile{ServFail: true})
	for _, port := range []uint16{DNSPort, DNSPort + simTCPPortOffset} {
		if _, ok := fabric.FaultFor(simnet.Endpoint{Addr: addr, Port: port}); !ok {
			t.Errorf("no fault profile on port %d", port)
		}
	}
}

// TestSpoofedResponsesNeverSurface: with a 100% wrong-ID spoofer in front of
// the server, every validated exchange must fail — garbage never leaks to the
// caller as data.
func TestSpoofedResponsesNeverSurface(t *testing.T) {
	fabric := simnet.New(5)
	serverIP := netip.MustParseAddr("192.0.2.53")
	detach, err := AttachSim(fabric, serverIP, staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	SetSimFault(fabric, serverIP, simnet.FaultProfile{WrongIDRate: 1})
	c := NewClient(&SimTransport{Fabric: fabric, Src: netip.MustParseAddr("198.51.100.1")})
	c.SeedIDs(1)
	c.Retries = 2
	_, err = c.Query(context.Background(), netip.AddrPortFrom(serverIP, DNSPort), "x.test", dns.TypeA)
	if !errors.Is(err, ErrIDMismatch) {
		t.Fatalf("err = %v, want ErrIDMismatch", err)
	}
	if Classify(err) != FailSpoofed {
		t.Errorf("class = %v, want spoofed", Classify(err))
	}
}

// TestBreakerOpenStoresNothing pins Open as a read: asking about a server no
// exchange has touched reports it closed and leaves the set empty, so a
// caller that polls breakers for many servers does not grow the set.
func TestBreakerOpenStoresNothing(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{Threshold: 1, HalfOpenAfter: 1})
	if s.Open(netip.MustParseAddr("192.0.2.9")) {
		t.Fatal("a server with no breaker reads open")
	}
	n := 0
	s.m.Range(func(netip.Addr, *breaker) bool { n++; return true })
	if n != 0 {
		t.Fatalf("Open stored %d breakers", n)
	}
}
