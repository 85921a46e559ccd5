package zone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dns"
)

func randomAddr(r *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{
		byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)),
	})
}

func exampleZone(t *testing.T) *Zone {
	t.Helper()
	z, err := Parse("example.com", `
; apex
example.com 3600 IN SOA ns1.example.com hostmaster.example.com 2023102401 7200 3600 1209600 300
example.com 3600 IN NS ns1.example.com
example.com 3600 IN NS ns2.example.com
example.com 300 IN A 192.0.2.10
example.com 300 IN TXT "v=spf1 ip4:192.0.2.0/24 -all"
; hosts
www.example.com 300 IN CNAME example.com
api.example.com 300 IN A 192.0.2.20
ns1.example.com 300 IN A 192.0.2.1
ns2.example.com 300 IN A 192.0.2.2
; wildcard
*.dev.example.com 300 IN A 192.0.2.99
; delegation
sub.example.com 3600 IN NS ns1.elsewhere.net
; deep name creating empty non-terminals
a.b.c.example.com 300 IN A 192.0.2.30
`)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestLookupHit(t *testing.T) {
	z := exampleZone(t)
	rrs, res := z.Lookup("example.com", dns.TypeA)
	if res != Hit || len(rrs) != 1 {
		t.Fatalf("apex A: %v %d", res, len(rrs))
	}
	rrs, res = z.Lookup("api.example.com", dns.TypeA)
	if res != Hit || rrs[0].Data.(*dns.A).Addr.String() != "192.0.2.20" {
		t.Fatalf("api A: %v %v", res, rrs)
	}
	_, res = z.Lookup("example.com", dns.TypeTXT)
	if res != Hit {
		t.Fatalf("apex TXT: %v", res)
	}
	// NS at apex answers authoritatively.
	rrs, res = z.Lookup("example.com", dns.TypeNS)
	if res != Hit || len(rrs) != 2 {
		t.Fatalf("apex NS: %v %d", res, len(rrs))
	}
}

func TestLookupCNAME(t *testing.T) {
	z := exampleZone(t)
	rrs, res := z.Lookup("www.example.com", dns.TypeA)
	if res != CNAMEHit {
		t.Fatalf("res = %v", res)
	}
	if rrs[0].Data.(*dns.CNAME).Target != "example.com" {
		t.Errorf("target = %v", rrs[0].Data)
	}
	// Querying the CNAME type itself is a Hit.
	_, res = z.Lookup("www.example.com", dns.TypeCNAME)
	if res != Hit {
		t.Errorf("CNAME-type query res = %v", res)
	}
}

func TestLookupNoData(t *testing.T) {
	z := exampleZone(t)
	_, res := z.Lookup("api.example.com", dns.TypeTXT)
	if res != NoData {
		t.Errorf("existing name wrong type: %v", res)
	}
	// Empty non-terminal: b.c.example.com has no records but a descendant.
	_, res = z.Lookup("b.c.example.com", dns.TypeA)
	if res != NoData {
		t.Errorf("empty non-terminal: %v", res)
	}
	_, res = z.Lookup("c.example.com", dns.TypeA)
	if res != NoData {
		t.Errorf("empty non-terminal 2: %v", res)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := exampleZone(t)
	_, res := z.Lookup("missing.example.com", dns.TypeA)
	if res != NXDomain {
		t.Errorf("res = %v", res)
	}
	_, res = z.Lookup("deep.missing.example.com", dns.TypeA)
	if res != NXDomain {
		t.Errorf("res = %v", res)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := exampleZone(t)
	rrs, res := z.Lookup("anything.dev.example.com", dns.TypeA)
	if res != Hit {
		t.Fatalf("res = %v", res)
	}
	if rrs[0].Name != "anything.dev.example.com" {
		t.Errorf("synthesized owner = %v", rrs[0].Name)
	}
	if rrs[0].Data.(*dns.A).Addr.String() != "192.0.2.99" {
		t.Errorf("wildcard data = %v", rrs[0].Data)
	}
	// Wildcard does not apply to types it does not define.
	_, res = z.Lookup("anything.dev.example.com", dns.TypeTXT)
	if res != NoData {
		t.Errorf("wildcard wrong type res = %v", res)
	}
	// A multi-label miss under the wildcard still matches (x.y.dev...).
	_, res = z.Lookup("x.y.dev.example.com", dns.TypeA)
	if res != Hit {
		t.Errorf("deep wildcard res = %v", res)
	}
}

func TestLookupDelegation(t *testing.T) {
	z := exampleZone(t)
	rrs, res := z.Lookup("host.sub.example.com", dns.TypeA)
	if res != Delegation {
		t.Fatalf("res = %v", res)
	}
	if rrs[0].Data.(*dns.NS).Host != "ns1.elsewhere.net" {
		t.Errorf("NS = %v", rrs[0].Data)
	}
	// Query exactly at the cut.
	_, res = z.Lookup("sub.example.com", dns.TypeA)
	if res != Delegation {
		t.Errorf("at-cut res = %v", res)
	}
	_, res = z.Lookup("sub.example.com", dns.TypeNS)
	if res != Delegation {
		t.Errorf("at-cut NS res = %v", res)
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := exampleZone(t)
	_, res := z.Lookup("other.org", dns.TypeA)
	if res != OutOfZone {
		t.Errorf("res = %v", res)
	}
	// Suffix overlap must not leak in.
	_, res = z.Lookup("notexample.com", dns.TypeA)
	if res != OutOfZone {
		t.Errorf("suffix-overlap res = %v", res)
	}
}

func TestAddOutOfZoneRejected(t *testing.T) {
	z := New("example.com")
	err := z.Add(dns.MustParseRR("other.org 60 IN A 192.0.2.1"))
	if err == nil {
		t.Error("out-of-zone Add accepted")
	}
	if err := z.Add(dns.RR{Name: "x.example.com"}); err == nil {
		t.Error("nil-payload Add accepted")
	}
}

func TestRemove(t *testing.T) {
	z := exampleZone(t)
	z.RemoveRRset("api.example.com", dns.TypeA)
	if _, res := z.Lookup("api.example.com", dns.TypeA); res != NXDomain {
		t.Errorf("after RemoveRRset: %v", res)
	}
}

func TestSOAAccessor(t *testing.T) {
	z := exampleZone(t)
	soa, ok := z.SOA()
	if !ok {
		t.Fatal("SOA missing")
	}
	if soa.Data.(*dns.SOA).Serial != 2023102401 {
		t.Errorf("serial = %d", soa.Data.(*dns.SOA).Serial)
	}
	empty := New("empty.test")
	if _, ok := empty.SOA(); ok {
		t.Error("empty zone reported SOA")
	}
}

func TestSerializeParseRoundtrip(t *testing.T) {
	z := exampleZone(t)
	text := z.Serialize()
	z2, err := Parse("example.com", text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if z.Size() != z2.Size() {
		t.Errorf("size %d != %d", z.Size(), z2.Size())
	}
	for _, rr := range z.Records() {
		found := false
		for _, rr2 := range z2.RRset(rr.Name, rr.Type()) {
			if rr2.String() == rr.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("record lost in roundtrip: %s", rr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("example.com", "garbage line here and more fields"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse("example.com", "other.org 60 IN A 192.0.2.1"); err == nil {
		t.Error("out-of-zone record accepted")
	}
}

func TestConcurrentMutationAndLookup(t *testing.T) {
	z := New("example.com")
	z.MustAddRR("example.com 60 IN A 192.0.2.1")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := dns.Name("h" + string(rune('a'+i%26)) + ".example.com")
			_ = z.Add(dns.RR{Name: name, Class: dns.ClassINET, TTL: 60,
				Data: &dns.TXT{Strings: []string{"x"}}})
			z.RemoveRRset(name, dns.TypeTXT)
		}
	}()
	for i := 0; i < 5000; i++ {
		z.Lookup("ha.example.com", dns.TypeTXT)
		z.Lookup("example.com", dns.TypeA)
	}
	close(stop)
	wg.Wait()
}

// Property: every record added at a non-delegated name is found by Lookup
// with result Hit, and names never added return NXDomain or NoData.
func TestQuickLookupConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := New("t.test")
		added := map[dns.Name]bool{}
		for i := 0; i < 20; i++ {
			label := string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26)))
			name := dns.Name(label + ".t.test")
			if err := z.Add(dns.RR{Name: name, Class: dns.ClassINET, TTL: 1,
				Data: &dns.A{Addr: randomAddr(r)}}); err != nil {
				return false
			}
			added[name] = true
		}
		for name := range added {
			if _, res := z.Lookup(name, dns.TypeA); res != Hit {
				return false
			}
			if _, res := z.Lookup(name, dns.TypeTXT); res != NoData {
				return false
			}
		}
		if _, res := z.Lookup("zzz-not-there.t.test", dns.TypeA); res != NXDomain {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRootZone(t *testing.T) {
	z := New(dns.Root)
	z.MustAddRR("com 3600 IN NS a.gtld-servers.net")
	rrs, res := z.Lookup("example.com", dns.TypeA)
	if res != Delegation || len(rrs) != 1 {
		t.Fatalf("root delegation: %v %d", res, len(rrs))
	}
}

func TestSerializeHeaderComment(t *testing.T) {
	z := exampleZone(t)
	if !strings.HasPrefix(z.Serialize(), "; zone example.com.") {
		t.Errorf("serialize header: %q", strings.SplitN(z.Serialize(), "\n", 2)[0])
	}
}

func TestParseDirectives(t *testing.T) {
	z, err := Parse("example.com", `
$TTL 7200
$ORIGIN example.com
@    IN SOA ns1.example.com hostmaster.example.com 1 7200 3600 1209600 300
@    IN NS  ns1.example.com
www  IN CNAME example.com
api  300 IN A 192.0.2.50
$ORIGIN dev.example.com
build IN A 192.0.2.60
`)
	if err != nil {
		t.Fatal(err)
	}
	// @ resolves to the origin.
	if _, ok := z.SOA(); !ok {
		t.Error("SOA at apex missing")
	}
	// Relative bare label under the first origin.
	rrs, res := z.Lookup("www.example.com", dns.TypeCNAME)
	if res != Hit {
		t.Fatalf("www lookup: %v", res)
	}
	if rrs[0].TTL != 7200 {
		t.Errorf("default TTL not applied: %d", rrs[0].TTL)
	}
	// Explicit TTL wins over $TTL.
	rrs, res = z.Lookup("api.example.com", dns.TypeA)
	if res != Hit || rrs[0].TTL != 300 {
		t.Fatalf("api: %v ttl=%d", res, rrs[0].TTL)
	}
	// $ORIGIN switch.
	if _, res := z.Lookup("build.dev.example.com", dns.TypeA); res != Hit {
		t.Errorf("build under switched origin: %v", res)
	}
}

func TestParseDirectiveErrors(t *testing.T) {
	bad := []string{
		"$ORIGIN",
		"$TTL",
		"$TTL notanumber",
		"$INCLUDE otherfile",
		"@",
	}
	for _, text := range bad {
		if _, err := Parse("example.com", text); err == nil {
			t.Errorf("Parse(%q): expected error", text)
		}
	}
	// $ORIGIN outside the zone makes later relative records out-of-zone.
	_, err := Parse("example.com", "$ORIGIN other.org\nwww IN A 192.0.2.1")
	if err == nil {
		t.Error("out-of-zone $ORIGIN record accepted")
	}
}

func TestParseRootOriginAt(t *testing.T) {
	z, err := Parse(dns.Root, "@ 3600 IN NS a.root-servers.test")
	if err != nil {
		t.Fatal(err)
	}
	if got := z.RRset(dns.Root, dns.TypeNS); len(got) != 1 {
		t.Errorf("root NS = %v", got)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	z := exampleZone(t)
	if z.Origin() != "example.com" {
		t.Errorf("Origin = %v", z.Origin())
	}
	for res, want := range map[Result]string{
		Hit: "Hit", CNAMEHit: "CNAME", NoData: "NoData", NXDomain: "NXDomain",
		Delegation: "Delegation", OutOfZone: "OutOfZone",
	} {
		if res.String() != want {
			t.Errorf("%d.String() = %q", res, res.String())
		}
	}
	if Result(99).String() == "" {
		t.Error("unknown Result renders empty")
	}
}

func TestMustAddRRPanics(t *testing.T) {
	z := New("example.com")
	defer func() {
		if recover() == nil {
			t.Error("MustAddRR did not panic")
		}
	}()
	z.MustAddRR("out-of.zone.org 60 IN A 192.0.2.1")
}

// TestSerializeDeterministic: an RRset of many records lists in the order
// it was added, whatever order the zone's maps are walked in, so two
// Serialize calls agree.
func TestSerializeDeterministic(t *testing.T) {
	z := New("example.com")
	for i := 1; i <= 30; i++ {
		z.MustAddRR(fmt.Sprintf("example.com 3600 IN NS ns%d.example.net", i))
		z.MustAddRR(fmt.Sprintf("h%d.example.com 300 IN A 192.0.2.%d", i, i))
	}
	want := z.Serialize()
	for i := 0; i < 20; i++ {
		if got := z.Serialize(); got != want {
			t.Fatalf("Serialize differs between calls:\n%s\n---\n%s", want, got)
		}
	}
	ns := z.Records()
	for i, rr := range ns[:30] {
		if host := rr.Data.(*dns.NS).Host; host != dns.Name(fmt.Sprintf("ns%d.example.net", i+1)) {
			t.Fatalf("record %d of the apex NS set is %s, want insertion order", i, host)
		}
	}
}
