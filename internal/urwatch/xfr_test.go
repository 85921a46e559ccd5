package urwatch

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/transport"
)

// startXfrZone binds a ZoneResponder on real UDP/TCP sockets and returns the
// TCP address transfers dial.
func startXfrZone(t *testing.T, z *ZoneResponder) netip.AddrPort {
	t.Helper()
	srv := dnsio.NewServer(z)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start zone server: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.TCPAddr()
}

// xfrTestStore builds a store with a frozen-clock staleness policy and a
// chain of generations with realistic churn:
//
//	gen 1: evil.test (malicious), shady.test (suspicious)
//	gen 2: + planted.test (malicious)           — appearance
//	gen 3: shady.test escalates to malicious    — reclassification
//	gen 4: - evil.test, + fresh.test (unknown)  — removal and appearance
func xfrTestStore(t *testing.T, clk Clock) *Store {
	t.Helper()
	s := NewStore()
	s.SetPolicy(StalenessPolicy{
		SweepInterval: 30 * time.Second,
		MaxStaleness:  10 * time.Minute,
		Clock:         clk,
	})
	base := clk()
	seal := func(seq uint64, urs ...*core.UR) *Generation {
		return SnapshotFromResult(&core.Result{URs: urs}, seq, base)
	}
	evil := mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")
	shady := mkUR("shady.test", "192.0.2.2", core.CategoryUnknown, "203.0.113.9")
	planted := mkUR("planted.test", "192.0.2.3", core.CategoryMalicious, "198.51.100.44")
	shadyEsc := mkUR("shady.test", "192.0.2.2", core.CategoryMalicious, "203.0.113.9")
	fresh := mkUR("fresh.test", "192.0.2.4", core.CategoryUnknown, "203.0.113.77")

	s.Publish(seal(1, evil, shady))
	s.Publish(seal(2, evil, shady, planted))
	s.Publish(seal(3, evil, shadyEsc, planted))
	s.Publish(seal(4, shadyEsc, planted, fresh))
	return s
}

func xfrResponder(s *Store) *ZoneResponder {
	return &ZoneResponder{
		Apex:    testApex,
		Store:   s,
		XferACL: mustACL("127.0.0.0/8"),
	}
}

func transfer(t *testing.T, server netip.AddrPort, qtype dns.Type, serial uint32) *dnsio.XfrResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := dnsio.Transfer(ctx, server, testApex, qtype, serial)
	if err != nil {
		t.Fatalf("%s transfer: %v", qtype, err)
	}
	return res
}

// TestAXFRServesFullZone: a full transfer over real TCP is SOA-framed,
// carries the apex NS, and lands a mirror on the current serial.
func TestAXFRServesFullZone(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := xfrTestStore(t, clk.Now)
	server := startXfrZone(t, xfrResponder(s))

	res := transfer(t, server, dns.TypeAXFR, 0)
	if res.RCode != dns.RCodeSuccess {
		t.Fatalf("AXFR rcode %s", res.RCode)
	}
	if serial, ok := res.Serial(); !ok || serial != 4 {
		t.Fatalf("AXFR serial = %d (ok=%v), want 4", serial, ok)
	}
	if res.Incremental() {
		t.Fatal("AXFR body classified as incremental")
	}
	sawNS := false
	for _, rr := range res.Records {
		if rr.Type() == dns.TypeNS {
			sawNS = true
		}
	}
	if !sawNS {
		t.Fatal("AXFR body carries no apex NS record")
	}
	m := new(Mirror)
	if err := m.Apply(res); err != nil {
		t.Fatalf("apply AXFR: %v", err)
	}
	if m.Serial() != 4 {
		t.Fatalf("mirror serial = %d, want 4", m.Serial())
	}
	// The zone must list both subtrees: domain names and reversed IPs.
	text := zoneText(m)
	for _, want := range []string{
		string(DomainName("planted.test", testApex)),
		"44.100.51.198.urbl." + string(testApex),
	} {
		if !containsLine(text, want) {
			t.Errorf("zone text missing owner %q", want)
		}
	}
}

// zoneText renders a mirror's zone in canonical text form: the SOA line,
// then every body record sorted lexically. Two mirrors holding the same zone
// render byte-identical text regardless of how they got there — the equality
// oracle for the AXFR-then-IXFR reconstruction contract.
func zoneText(m *Mirror) string {
	var lines []string
	for line, n := range m.body {
		for k := 0; k < n; k++ {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return m.soaLine + "\n" + strings.Join(append(lines, ""), "\n")
}

func containsLine(text, owner string) bool {
	for _, line := range splitLines(text) {
		if len(line) >= len(owner) && line[:len(owner)] == owner {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestIXFRChainReconstruction is the acceptance contract: a secondary that
// AXFRs at generation 1 and then applies a single IXFR spanning three
// generation deltas (1→2→3→4) must hold a zone byte-identical to a fresh
// AXFR of generation 4.
func TestIXFRChainReconstruction(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := NewStore()
	s.SetPolicy(StalenessPolicy{
		SweepInterval: 30 * time.Second,
		MaxStaleness:  10 * time.Minute,
		Clock:         clk.Now,
	})
	base := clk.Now()
	seal := func(seq uint64, urs ...*core.UR) *Generation {
		return SnapshotFromResult(&core.Result{URs: urs}, seq, base)
	}
	evil := mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")
	shady := mkUR("shady.test", "192.0.2.2", core.CategoryUnknown, "203.0.113.9")
	planted := mkUR("planted.test", "192.0.2.3", core.CategoryMalicious, "198.51.100.44")
	shadyEsc := mkUR("shady.test", "192.0.2.2", core.CategoryMalicious, "203.0.113.9")
	fresh := mkUR("fresh.test", "192.0.2.4", core.CategoryUnknown, "203.0.113.77")

	server := startXfrZone(t, xfrResponder(s))

	// Secondary AXFRs at generation 1.
	s.Publish(seal(1, evil, shady))
	mirror := new(Mirror)
	if err := mirror.Apply(transfer(t, server, dns.TypeAXFR, 0)); err != nil {
		t.Fatalf("seed AXFR: %v", err)
	}
	if mirror.Serial() != 1 {
		t.Fatalf("seed mirror serial = %d, want 1", mirror.Serial())
	}

	// Primary publishes three more generations.
	s.Publish(seal(2, evil, shady, planted))
	s.Publish(seal(3, evil, shadyEsc, planted))
	s.Publish(seal(4, shadyEsc, planted, fresh))

	// One IXFR spans all three deltas.
	ires := transfer(t, server, dns.TypeIXFR, mirror.Serial())
	if !ires.Incremental() {
		t.Fatalf("IXFR from serial 1 fell back to full body (messages=%d records=%d)",
			ires.Messages, len(ires.Records))
	}
	if err := mirror.Apply(ires); err != nil {
		t.Fatalf("apply IXFR chain: %v", err)
	}
	if mirror.Serial() != 4 {
		t.Fatalf("mirror serial after IXFR = %d, want 4", mirror.Serial())
	}

	// Byte-identity against a fresh full transfer.
	fresh4 := new(Mirror)
	if err := fresh4.Apply(transfer(t, server, dns.TypeAXFR, 0)); err != nil {
		t.Fatalf("fresh AXFR: %v", err)
	}
	if got, want := zoneText(mirror), zoneText(fresh4); got != want {
		t.Fatalf("IXFR-reconstructed zone differs from fresh AXFR:\n--- ixfr\n%s\n--- axfr\n%s", got, want)
	}
}

// TestIXFRUpToDate: a secondary already at the current serial gets the
// single-SOA reply.
func TestIXFRUpToDate(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := xfrTestStore(t, clk.Now)
	server := startXfrZone(t, xfrResponder(s))

	res := transfer(t, server, dns.TypeIXFR, 4)
	if len(res.Records) != 1 {
		t.Fatalf("up-to-date IXFR returned %d records, want 1", len(res.Records))
	}
	if serial, ok := res.Serial(); !ok || serial != 4 {
		t.Fatalf("up-to-date IXFR serial = %d (ok=%v), want 4", serial, ok)
	}
	m := new(Mirror)
	if err := m.Apply(transfer(t, server, dns.TypeAXFR, 0)); err != nil {
		t.Fatalf("AXFR: %v", err)
	}
	if err := m.Apply(res); err != nil {
		t.Fatalf("apply up-to-date reply: %v", err)
	}
}

// TestIXFRFallbackToAXFR: a serial that predates the retention window gets a
// full AXFR-style body instead of a delta, and the mirror resyncs from it.
func TestIXFRFallbackToAXFR(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := NewStore()
	s.SetPolicy(StalenessPolicy{
		SweepInterval: 30 * time.Second,
		Retain:        2, // only the last two generations are delta-servable
		Clock:         clk.Now,
	})
	base := clk.Now()
	seal := func(seq uint64, urs ...*core.UR) *Generation {
		urs = append([]*core.UR{mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")}, urs...)
		return SnapshotFromResult(&core.Result{URs: urs}, seq, base)
	}
	s.Publish(seal(1))
	s.Publish(seal(2, mkUR("a.test", "192.0.2.9", core.CategoryUnknown, "203.0.113.1")))
	s.Publish(seal(3, mkUR("b.test", "192.0.2.9", core.CategoryUnknown, "203.0.113.2")))
	s.Publish(seal(4, mkUR("c.test", "192.0.2.9", core.CategoryUnknown, "203.0.113.3")))

	server := startXfrZone(t, xfrResponder(s))
	res := transfer(t, server, dns.TypeIXFR, 1) // serial 1 fell out of the ring
	if res.Incremental() {
		t.Fatal("IXFR for an evicted serial must fall back to a full body")
	}
	m := new(Mirror)
	if err := m.Apply(res); err != nil {
		t.Fatalf("apply fallback body: %v", err)
	}
	if m.Serial() != 4 {
		t.Fatalf("resynced mirror serial = %d, want 4", m.Serial())
	}

	// A retained serial still gets a real delta.
	res = transfer(t, server, dns.TypeIXFR, 3)
	if !res.Incremental() {
		t.Fatal("IXFR for a retained serial must be incremental")
	}
}

// TestXfrACL: transfers are disabled with no allowlist and REFUSED for
// non-matching sources; ordinary queries are unaffected either way.
func TestXfrACL(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := xfrTestStore(t, clk.Now)

	// nil allowlist: transfers disabled outright.
	server := startXfrZone(t, &ZoneResponder{Apex: testApex, Store: s})
	res := transfer(t, server, dns.TypeAXFR, 0)
	if res.RCode != dns.RCodeRefused {
		t.Fatalf("AXFR with nil allowlist: rcode %s, want REFUSED", res.RCode)
	}
	if len(res.Records) != 0 {
		t.Fatalf("refused transfer leaked %d records", len(res.Records))
	}

	// Allowlist that excludes the client: REFUSED too.
	server = startXfrZone(t, &ZoneResponder{
		Apex: testApex, Store: s, XferACL: mustACL("10.0.0.0/8"),
	})
	if res := transfer(t, server, dns.TypeAXFR, 0); res.RCode != dns.RCodeRefused {
		t.Fatalf("AXFR from non-allowlisted source: rcode %s, want REFUSED", res.RCode)
	}
	if res := transfer(t, server, dns.TypeIXFR, 1); res.RCode != dns.RCodeRefused {
		t.Fatalf("IXFR from non-allowlisted source: rcode %s, want REFUSED", res.RCode)
	}
	// The same client can still make ordinary queries over the same server.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cli := dnsio.NewClient(&dnsio.NetTransport{})
	reply, err := cli.Query(ctx, server, DomainName("planted.test", testApex), dns.TypeA)
	if err != nil {
		t.Fatalf("ordinary query: %v", err)
	}
	if reply.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("ordinary query rcode %s, want NOERROR", reply.Header.RCode)
	}
}

// TestXfrOverUDP: AXFR is TCP-only and REFUSED over UDP even for allowlisted
// clients; an allowlisted UDP IXFR gets the single-SOA steer to TCP.
func TestXfrOverUDP(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	z := xfrResponder(xfrTestStore(t, clk.Now))
	src := netip.MustParseAddr("127.0.0.1")

	q := dns.NewQuery(9, testApex, dns.TypeAXFR)
	if r := z.HandleQuery(src, q); r.Header.RCode != dns.RCodeRefused {
		t.Fatalf("UDP AXFR rcode %s, want REFUSED", r.Header.RCode)
	}
	q = dns.NewQuery(10, testApex, dns.TypeIXFR)
	r := z.HandleQuery(src, q)
	if r.Header.RCode != dns.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("UDP IXFR: rcode %s answers %d, want NOERROR with single SOA", r.Header.RCode, len(r.Answers))
	}
	if soa, ok := r.Answers[0].Data.(*dns.SOA); !ok || soa.Serial != 4 {
		t.Fatalf("UDP IXFR answer = %v, want current SOA serial 4", r.Answers[0])
	}
	// Non-allowlisted UDP transfer questions are refused.
	if r := z.HandleQuery(netip.MustParseAddr("203.0.113.5"), dns.NewQuery(11, testApex, dns.TypeIXFR)); r.Header.RCode != dns.RCodeRefused {
		t.Fatalf("non-allowlisted UDP IXFR rcode %s, want REFUSED", r.Header.RCode)
	}
}

// TestNotifyRoundTrip: dnsio.Notify reaches a served zone and is acked for
// allowlisted sources; the direct handler refuses others.
func TestNotifyRoundTrip(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := xfrTestStore(t, clk.Now)
	z := xfrResponder(s)
	srv := dnsio.NewServer(z)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := dnsio.Notify(ctx, srv.UDPAddr(), testApex, 4); err != nil {
		t.Fatalf("notify: %v", err)
	}

	// Direct handler checks for both ACL outcomes.
	nq := &dns.Message{
		Header:    dns.Header{ID: 7, OpCode: dns.OpNotify, Authoritative: true},
		Questions: []dns.Question{{Name: testApex, Type: dns.TypeSOA, Class: dns.ClassINET}},
	}
	if r := z.HandleQuery(netip.MustParseAddr("127.0.0.1"), nq); r.Header.RCode != dns.RCodeSuccess {
		t.Fatalf("allowlisted NOTIFY rcode %s, want NOERROR ack", r.Header.RCode)
	}
	if r := z.HandleQuery(netip.MustParseAddr("203.0.113.5"), nq); r.Header.RCode != dns.RCodeRefused {
		t.Fatalf("non-allowlisted NOTIFY rcode %s, want REFUSED", r.Header.RCode)
	}
}

// TestACLParse covers the allowlist parser and matcher.
func TestACLParse(t *testing.T) {
	a, err := ParseACL("127.0.0.0/8, 10.2.3.4 ,::1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for addr, want := range map[string]bool{
		"127.0.0.1":        true,
		"127.255.255.254":  true,
		"10.2.3.4":         true,
		"10.2.3.5":         false,
		"::1":              true,
		"::ffff:127.0.0.1": true, // 4-in-6 mapped unwraps to the v4 prefix
		"192.0.2.1":        false,
	} {
		if got := a.Contains(netip.MustParseAddr(addr)); got != want {
			t.Errorf("Contains(%s) = %v, want %v", addr, got, want)
		}
	}
	if nilACL, err := ParseACL("  "); err != nil || nilACL != nil {
		t.Fatalf("blank ACL = %v, %v; want nil, nil", nilACL, err)
	}
	// A list that names no prefix must not parse to nil, which would open
	// the zone or disable transfers.
	for _, s := range []string{",", " , ", ",,"} {
		if a, err := ParseACL(s); err == nil {
			t.Errorf("ParseACL(%q) = %v, nil; want an error", s, a)
		}
	}
	var none *ACL
	if none.Contains(netip.MustParseAddr("127.0.0.1")) {
		t.Fatal("nil ACL must contain nothing")
	}
	if _, err := ParseACL("not-an-addr"); err == nil {
		t.Fatal("bad entry must error")
	}
}

// dotAXFR runs one AXFR of the test zone over a DoT session and returns the
// first message's rcode and every answer record up to the closing SOA.
func dotAXFR(t *testing.T, server netip.AddrPort, pool *x509.CertPool) (dns.RCode, []dns.RR) {
	t.Helper()
	conn, err := tls.Dial("tcp", server.String(), &tls.Config{RootCAs: pool})
	if err != nil {
		t.Fatalf("dial DoT: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	q, err := dns.NewQuery(0x5a5a, testApex, dns.TypeAXFR).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := dnsio.WriteFrame(conn, q); err != nil {
		t.Fatal(err)
	}
	var rrs []dns.RR
	soas := 0
	for {
		raw, err := dnsio.ReadFrame(conn)
		if err != nil {
			t.Fatalf("DoT transfer read: %v", err)
		}
		m, err := dns.Unpack(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.RCode != dns.RCodeSuccess {
			return m.Header.RCode, rrs
		}
		for _, rr := range m.Answers {
			rrs = append(rrs, rr)
			if rr.Type() == dns.TypeSOA {
				if soas++; soas == 2 {
					return dns.RCodeSuccess, rrs
				}
			}
		}
	}
}

// TestAXFROverDoT: DoT queries take the TCP server's stream loop, so an
// allowlisted AXFR over TLS streams the records a TCP transfer of the same
// generation does, a source outside the allowlist is REFUSED, and an idle
// DoT client does not hold up Close.
func TestAXFROverDoT(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := xfrTestStore(t, clk.Now)
	cert, pool, err := transport.SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := transfer(t, startXfrZone(t, xfrResponder(s)), dns.TypeAXFR, 0)

	srv, err := transport.ServeDoT(xfrResponder(s), "127.0.0.1:0", cert)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcode, got := dotAXFR(t, srv.TCPAddr(), pool)
	if rcode != dns.RCodeSuccess {
		t.Fatalf("allowlisted DoT AXFR rcode %s, want NOERROR", rcode)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("DoT AXFR carried %d records, TCP AXFR %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i].String() != want.Records[i].String() {
			t.Fatalf("record %d: DoT %q, TCP %q", i, got[i], want.Records[i])
		}
	}

	refusing, err := transport.ServeDoT(&ZoneResponder{
		Apex: testApex, Store: s, XferACL: mustACL("10.0.0.0/8"),
	}, "127.0.0.1:0", cert)
	if err != nil {
		t.Fatal(err)
	}
	defer refusing.Close()
	if rcode, got := dotAXFR(t, refusing.TCPAddr(), pool); rcode != dns.RCodeRefused || len(got) != 0 {
		t.Fatalf("DoT AXFR from non-allowlisted source: rcode %s with %d records, want REFUSED", rcode, len(got))
	}

	idle, err := tls.Dial("tcp", srv.TCPAddr().String(), &tls.Config{RootCAs: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked on an idle DoT client")
	}
}

// TestIXFRAcrossSharedGenerations: an IXFR whose chain holds generations
// published over equal ones (and so sharing their tables) sends an empty
// step for each, carries the one real change, sends the bytes it sent when
// every generation kept its own tables, and reconstructs the fresh AXFR.
func TestIXFRAcrossSharedGenerations(t *testing.T) {
	clk := newMovableClock(time.Unix(1_700_000_000, 0))
	s := NewStore()
	s.SetPolicy(StalenessPolicy{SweepInterval: 30 * time.Second, MaxStaleness: 10 * time.Minute, Clock: clk.Now})
	base := clk.Now()
	seal := func(seq uint64, urs ...*core.UR) *Generation {
		return SnapshotFromResult(&core.Result{URs: urs}, seq, base)
	}
	evil := mkUR("evil.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.7")
	shady := mkUR("shady.test", "192.0.2.2", core.CategoryUnknown, "203.0.113.9")
	planted := mkUR("planted.test", "192.0.2.3", core.CategoryMalicious, "198.51.100.44")

	server := startXfrZone(t, xfrResponder(s))
	s.Publish(seal(1, evil, shady))
	mirror := new(Mirror)
	if err := mirror.Apply(transfer(t, server, dns.TypeAXFR, 0)); err != nil {
		t.Fatalf("seed AXFR: %v", err)
	}
	s.Publish(seal(2, evil, shady))
	s.Publish(seal(3, evil, shady, planted))
	s.Publish(seal(4, evil, shady, planted))
	chain, ok := s.ChainFromSerial(1)
	if !ok || len(chain) != 4 || !chain[1].sharesTables(chain[0]) || chain[2].sharesTables(chain[1]) || !chain[3].sharesTables(chain[2]) {
		t.Fatalf("chain from serial 1: ok=%v len=%d; want generations 2 and 4 sharing their predecessors' tables, 3 not", ok, len(chain))
	}

	ires := transfer(t, server, dns.TypeIXFR, 1)
	var got strings.Builder
	for _, rr := range ires.Records {
		got.WriteString(rr.String())
		got.WriteByte('\n')
	}
	// The bytes this transfer sent when every generation kept its own tables.
	const want = `feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 4 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 1 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 2 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 2 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 3 30 15 600 30
planted.test.urwatch.feed.test.	30	IN	A	127.0.0.2
planted.test.urwatch.feed.test.	30	IN	TXT	"malicious A planted.test. @192.0.2.3 (TestDNS)"
44.100.51.198.urbl.feed.test.	30	IN	A	127.0.0.2
44.100.51.198.urbl.feed.test.	30	IN	TXT	"malicious A planted.test. @192.0.2.3 (TestDNS)"
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 3 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 4 30 15 600 30
feed.test.	30	IN	SOA	ns.feed.test. hostmaster.feed.test. 4 30 15 600 30
`
	if got.String() != want {
		t.Errorf("IXFR from serial 1:\n%s\nwant:\n%s", got.String(), want)
	}
	if err := mirror.Apply(ires); err != nil {
		t.Fatalf("apply IXFR chain: %v", err)
	}
	fresh := new(Mirror)
	if err := fresh.Apply(transfer(t, server, dns.TypeAXFR, 0)); err != nil {
		t.Fatalf("fresh AXFR: %v", err)
	}
	if mirror.Serial() != 4 || zoneText(mirror) != zoneText(fresh) {
		t.Fatalf("IXFR-reconstructed zone (serial %d) differs from fresh AXFR:\n--- ixfr\n%s\n--- axfr\n%s", mirror.Serial(), zoneText(mirror), zoneText(fresh))
	}
}
