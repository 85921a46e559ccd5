package hosting

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// TestURServedOverRealSockets proves the attack end-to-end over the OS
// network stack: a provider nameserver (normally attached to the simulated
// fabric) is additionally exposed on a loopback UDP/TCP socket, and a real
// wire-format query retrieves the attacker's undelegated record.
func TestURServedOverRealSockets(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "victim.com")
	p := w.mustProvider(t, PresetClouDNS())
	p.OpenAccount("attacker", false)
	hz, err := p.CreateZone("attacker", "victim.com")
	if err != nil {
		t.Fatal(err)
	}
	hz.Zone.MustAdd("victim.com", 120, &dns.A{Addr: netip.MustParseAddr("66.66.2.2")})

	// Expose the same authoritative engine on a real socket.
	srv := dnsio.NewServer(hz.NS[0].Server())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := dnsio.NewClient(&dnsio.NetTransport{})
	resp, err := client.Query(context.Background(), srv.UDPAddr(), "victim.com", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.AnswersOfType(dns.TypeA)
	if len(got) != 1 || got[0].Data.(*dns.A).Addr != netip.MustParseAddr("66.66.2.2") {
		t.Errorf("UR over real socket: %v", resp.Answers)
	}
	// The protective fallback also crosses the wire.
	resp, err = client.Query(context.Background(), srv.UDPAddr(), "unhosted.org", dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	got = resp.AnswersOfType(dns.TypeA)
	if len(got) != 1 || got[0].Data.(*dns.A).Addr != p.protectiveAddr {
		t.Errorf("protective record over real socket: %v", resp.Answers)
	}
}
