package sandbox

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

var (
	victim   = netip.MustParseAddr("100.70.0.9")
	resolver = netip.MustParseAddr("100.70.0.53")
	urServer = netip.MustParseAddr("100.70.1.53")
	c2Addr   = netip.MustParseAddr("100.70.2.66")
)

// fakeNS answers every A query with the C2 address.
type fakeNS struct{}

func (fakeNS) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	r := q.Reply()
	if q.Question().Type == dns.TypeA {
		r.Answers = append(r.Answers, dns.RR{
			Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
			Data: &dns.A{Addr: c2Addr},
		})
	}
	return r
}

func newSandbox(t *testing.T) (*Sandbox, *simnet.Fabric) {
	t.Helper()
	f := simnet.New(1)
	for _, addr := range []netip.Addr{resolver, urServer} {
		if _, err := dnsio.AttachSim(f, addr, fakeNS{}); err != nil {
			t.Fatal(err)
		}
	}
	err := f.Listen(simnet.Endpoint{Addr: c2Addr, Port: 443},
		simnet.HandlerFunc(func(_ []byte, _ netip.Addr, p []byte) []byte { return []byte("ok") }))
	if err != nil {
		t.Fatal(err)
	}
	err = f.Listen(simnet.Endpoint{Addr: c2Addr, Port: 25},
		simnet.HandlerFunc(func(_ []byte, _ netip.Addr, p []byte) []byte { return []byte("250") }))
	if err != nil {
		t.Fatal(err)
	}
	return New(f, victim, resolver), f
}

func TestRunCapturesFlows(t *testing.T) {
	sb, _ := newSandbox(t)
	sample := &Sample{
		Name: "test-sample", Family: "TestFam", SHA256: "abc",
		Behavior: func(env Env) error {
			resp, err := env.QueryDNS(urServer, "victim.com", dns.TypeA)
			if err != nil {
				return err
			}
			dst := resp.AnswersOfType(dns.TypeA)[0].Data.(*dns.A).Addr
			if err := env.ConnectTCP(dst, 443, "c2-checkin test"); err != nil {
				return err
			}
			return env.SendSMTP(dst, "covert-smtp hello")
		},
	}
	rep := sb.Run(sample)
	if rep.Err != nil {
		t.Fatalf("behaviour error: %v", rep.Err)
	}
	if len(rep.Flows) != 3 {
		t.Fatalf("flows = %d: %v", len(rep.Flows), rep.Flows)
	}
	if rep.Flows[0].Proto != ProtoDNS || rep.Flows[1].Proto != ProtoTCP || rep.Flows[2].Proto != ProtoSMTP {
		t.Errorf("flow protocols: %v", rep.Flows)
	}
	for _, f := range rep.Flows {
		if f.Src != victim {
			t.Errorf("flow src = %v", f.Src)
		}
		if !f.Answered {
			t.Errorf("flow not answered: %v", f)
		}
	}
	if len(rep.DNS) != 1 || !rep.DNS[0].Direct || rep.DNS[0].Server != urServer {
		t.Errorf("DNS records: %+v", rep.DNS)
	}
	ips := rep.ContactedIPs()
	if len(ips) != 1 || ips[0] != c2Addr {
		t.Errorf("contacted IPs: %v", ips)
	}
}

func TestResolveDefaultIsIndirect(t *testing.T) {
	sb, _ := newSandbox(t)
	sample := &Sample{
		Name: "indirect", Family: "T",
		Behavior: func(env Env) error {
			_, err := env.ResolveDefault("site.com", dns.TypeA)
			return err
		},
	}
	rep := sb.Run(sample)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(rep.DNS) != 1 || rep.DNS[0].Direct {
		t.Errorf("DNS: %+v", rep.DNS)
	}
	if rep.DNS[0].Server != resolver {
		t.Errorf("server = %v", rep.DNS[0].Server)
	}
	if !strings.Contains(rep.Flows[0].Payload, "direct=false") {
		t.Errorf("payload: %q", rep.Flows[0].Payload)
	}
}

func TestFailedConnectionsRecorded(t *testing.T) {
	sb, _ := newSandbox(t)
	dead := netip.MustParseAddr("100.70.9.9")
	sample := &Sample{
		Name: "dead-c2", Family: "T",
		Behavior: func(env Env) error {
			return env.ConnectTCP(dead, 443, "c2-checkin")
		},
	}
	rep := sb.Run(sample)
	if rep.Err == nil {
		t.Error("expected error from dead C2")
	}
	if len(rep.Flows) != 1 || rep.Flows[0].Answered {
		t.Errorf("flows: %v", rep.Flows)
	}
}

func TestRunAll(t *testing.T) {
	sb, _ := newSandbox(t)
	samples := []*Sample{
		{Name: "a", Family: "F"},
		{Name: "b", Family: "F", Behavior: func(env Env) error { return nil }},
	}
	reps := sb.RunAll(samples)
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Sample.Name != "a" || len(reps[0].Flows) != 0 {
		t.Error("nil-behavior report wrong")
	}
	if sb.VictimAddr() != victim {
		t.Error("victim addr accessor wrong")
	}
}
