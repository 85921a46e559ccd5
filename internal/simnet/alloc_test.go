package simnet_test

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// TestExchangeAllocBudget: one exchange with a simulated DNS authority, the
// response written into the caller's buffer, costs at most the decoded query's
// name — not a reply message (the serve loop lends its own), not a
// packed-response buffer, not a compressor, not a closure. Without a buffer it
// costs the one allocation that holds the response more.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	f := simnet.New(1)
	addr := netip.MustParseAddr("10.0.0.53")
	refuse := dnsio.ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		r := q.Reply()
		r.Header.RCode = dns.RCodeRefused
		return r
	})
	if _, err := dnsio.AttachSim(f, addr, refuse); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	ep := simnet.Endpoint{Addr: addr, Port: dnsio.DNSPort}
	var queries [2][]byte
	for i, name := range []dns.Name{"a.example.com", "b.example.org"} {
		var err error
		if queries[i], err = dns.NewQuery(uint16(i+1), name, dns.TypeA).Pack(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 512)
	i := 0
	exchange := func(into []byte) func() {
		return func() {
			i++
			var resp []byte
			var err error
			if into != nil {
				resp, err = f.ExchangeInto(into, src, ep, queries[i%2], 0)
			} else {
				resp, err = f.Exchange(src, ep, queries[i%2], 0)
			}
			if err != nil || len(resp) < 12 || resp[3]&0xF != byte(dns.RCodeRefused) {
				t.Fatalf("exchange: % x, %v", resp, err)
			}
		}
	}
	if n := testing.AllocsPerRun(500, exchange(buf)); n > 1 {
		t.Errorf("ExchangeInto allocates %.1f objects per exchange, want <= 1", n)
	}
	if n := testing.AllocsPerRun(500, exchange(nil)); n > 2 {
		t.Errorf("Exchange allocates %.1f objects per exchange, want <= 2", n)
	}
}
