package simnet

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"
)

// faultFixture binds a recording echo handler on one endpoint.
type faultFixture struct {
	f     *Fabric
	ep    Endpoint
	src   netip.Addr
	calls *int
}

func newFaultFixture(t *testing.T, seed int64) *faultFixture {
	t.Helper()
	f := New(seed)
	ep := Endpoint{Addr: netip.MustParseAddr("192.0.2.1"), Port: 53}
	calls := 0
	h := HandlerFunc(func(_ []byte, _ netip.Addr, payload []byte) []byte {
		calls++
		out := make([]byte, len(payload))
		copy(out, payload)
		return out
	})
	if err := f.Listen(ep, h); err != nil {
		t.Fatal(err)
	}
	return &faultFixture{f: f, ep: ep, src: netip.MustParseAddr("198.51.100.9"), calls: &calls}
}

// query is a minimal well-formed DNS query header + one question.
func testQuery() []byte {
	return []byte{
		0xAB, 0xCD, // ID
		0x01, 0x00, // RD set, QR clear, RCODE 0
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // QDCOUNT=1
		0x01, 'x', 0x00, // name "x."
		0x00, 0x01, 0x00, 0x01, // type A, class IN
	}
}

func TestFaultBlackhole(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{Blackhole: true})
	for i := 0; i < 5; i++ {
		if _, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0); !errors.Is(err, ErrTimeout) {
			t.Fatalf("exchange %d: err = %v, want ErrTimeout", i, err)
		}
	}
	if *fx.calls != 0 {
		t.Errorf("handler invoked %d times through a blackhole", *fx.calls)
	}
	if fx.f.FaultDrops() != 5 || fx.f.Drops() != 5 {
		t.Errorf("drops = %d/%d, want 5/5", fx.f.FaultDrops(), fx.f.Drops())
	}
}

func TestFaultFlapDutyCycle(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{FlapPeriod: 4, FlapDown: 2})
	var pattern []bool
	for i := 0; i < 8; i++ {
		_, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0)
		pattern = append(pattern, err == nil)
	}
	want := []bool{false, false, true, true, false, false, true, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("flap pattern = %v, want %v", pattern, want)
		}
	}
}

func TestFaultServFailEcho(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{ServFail: true})
	resp, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *fx.calls != 0 {
		t.Error("handler invoked despite ServFail short-circuit")
	}
	if resp[0] != 0xAB || resp[1] != 0xCD {
		t.Errorf("ID not preserved: % x", resp[:2])
	}
	if resp[2]&0x80 == 0 {
		t.Error("QR bit not set")
	}
	if resp[3]&0x0F != 2 {
		t.Errorf("RCODE = %d, want SERVFAIL(2)", resp[3]&0x0F)
	}
}

func TestFaultWrongID(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{WrongIDRate: 1})
	q := testQuery()
	resp, err := fx.f.Exchange(fx.src, fx.ep, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] == q[0] && resp[1] == q[1] {
		t.Errorf("response ID % x not spoofed", resp[:2])
	}
	if fx.f.SpoofsInjected() != 1 {
		t.Errorf("spoofs = %d", fx.f.SpoofsInjected())
	}
}

func TestFaultGarbageAndTruncate(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{GarbageRate: 1})
	q := testQuery()
	resp, err := fx.f.Exchange(fx.src, fx.ep, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(resp, q) {
		t.Error("garbage fault returned the genuine payload")
	}
	if fx.f.GarbageInjected() != 1 {
		t.Errorf("garbage counter = %d", fx.f.GarbageInjected())
	}

	fx.f.SetFault(fx.ep, FaultProfile{TruncateResp: 7})
	resp, err = fx.f.Exchange(fx.src, fx.ep, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 7 {
		t.Errorf("truncated response length = %d, want 7", len(resp))
	}
}

func TestFaultExtraRTTAndAdvanceVirtual(t *testing.T) {
	fx := newFaultFixture(t, 1)
	base := fx.f.VirtualRTT()
	fx.f.SetFault(fx.ep, FaultProfile{ExtraRTT: 150 * time.Millisecond})
	if _, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0); err != nil {
		t.Fatal(err)
	}
	gained := fx.f.VirtualRTT() - base
	if gained < 150*time.Millisecond {
		t.Errorf("virtual clock gained %v, want >= 150ms + base RTT", gained)
	}
	before := fx.f.VirtualRTT()
	fx.f.AdvanceVirtual(time.Second)
	if fx.f.VirtualRTT()-before != time.Second {
		t.Error("AdvanceVirtual did not book the delay")
	}
	fx.f.AdvanceVirtual(-time.Hour) // negative advances are ignored
	if fx.f.VirtualRTT() != before+time.Second {
		t.Error("negative AdvanceVirtual moved the clock")
	}
}

// TestFaultLossDeterministicAcrossRuns pins the chaos-reproducibility
// contract: two fabrics with the same seed and profile drop exactly the same
// exchanges.
func TestFaultLossDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) []bool {
		fx := newFaultFixture(t, seed)
		fx.f.SetFault(fx.ep, FaultProfile{LossRate: 0.5})
		var pattern []bool
		for i := 0; i < 200; i++ {
			_, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0)
			pattern = append(pattern, err == nil)
		}
		return pattern
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at exchange %d", i)
		}
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical loss patterns")
	}
	ok := 0
	for _, v := range a {
		if v {
			ok++
		}
	}
	if ok < 60 || ok > 140 {
		t.Errorf("50%% loss delivered %d/200", ok)
	}
}

func TestFaultClearAndLookup(t *testing.T) {
	fx := newFaultFixture(t, 1)
	if _, ok := fx.f.FaultFor(fx.ep); ok {
		t.Error("profile reported before SetFault")
	}
	fx.f.SetFault(fx.ep, FaultProfile{Blackhole: true})
	if p, ok := fx.f.FaultFor(fx.ep); !ok || !p.Blackhole {
		t.Error("profile not installed")
	}
	fx.f.ClearFault(fx.ep)
	if _, ok := fx.f.FaultFor(fx.ep); ok {
		t.Error("profile survived ClearFault")
	}
	if _, err := fx.f.Exchange(fx.src, fx.ep, testQuery(), 0); err != nil {
		t.Errorf("exchange after ClearFault: %v", err)
	}
	fx.f.SetFault(fx.ep, FaultProfile{Blackhole: true})
	other := Endpoint{Addr: netip.MustParseAddr("192.0.2.2"), Port: 53}
	fx.f.SetFault(other, FaultProfile{ServFail: true})
	fx.f.ClearFaults()
	if _, ok := fx.f.FaultFor(fx.ep); ok {
		t.Error("profile survived ClearFaults")
	}
	if _, ok := fx.f.FaultFor(other); ok {
		t.Error("second profile survived ClearFaults")
	}
	// Replacing a profile counts it once: clearing it must neither hide the
	// other endpoint's profile nor leave the fabric believing one is installed.
	fx.f.SetFault(fx.ep, FaultProfile{Blackhole: true})
	fx.f.SetFault(fx.ep, FaultProfile{ServFail: true})
	fx.f.SetFault(other, FaultProfile{Blackhole: true})
	fx.f.ClearFault(fx.ep)
	fx.f.ClearFault(fx.ep)
	if p, ok := fx.f.FaultFor(other); !ok || !p.Blackhole {
		t.Error("clearing a replaced profile hid another endpoint's")
	}
	fx.f.ClearFault(other)
	for _, e := range []Endpoint{fx.ep, other} {
		if _, ok := fx.f.FaultFor(e); ok {
			t.Errorf("%s still reports a profile after every one was cleared", e)
		}
	}
}

// TestFaultReliablePathSkipsLossAndTruncation: the reliable (TCP-semantics)
// exchange honours blackhole/servfail but never per-endpoint datagram loss
// or byte truncation.
func TestFaultReliablePathSkipsLossAndTruncation(t *testing.T) {
	fx := newFaultFixture(t, 1)
	fx.f.SetFault(fx.ep, FaultProfile{LossRate: 1, TruncateResp: 4})
	resp, err := fx.f.ExchangeReliable(fx.src, fx.ep, testQuery())
	if err != nil {
		t.Fatalf("reliable exchange hit datagram-only faults: %v", err)
	}
	if len(resp) == 4 {
		t.Error("reliable exchange truncated")
	}
	fx.f.SetFault(fx.ep, FaultProfile{Blackhole: true})
	if _, err := fx.f.ExchangeReliable(fx.src, fx.ep, testQuery()); !errors.Is(err, ErrTimeout) {
		t.Errorf("blackhole not applied on reliable path: %v", err)
	}
}
