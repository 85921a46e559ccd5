// Package sandbox is the malware-evaluation substrate: it executes malware
// behaviour programs against the simulated network and captures every flow
// they generate — DNS queries (both the normal resolution path and direct
// queries to hosting-provider nameservers), TCP connections, and SMTP
// sessions. The captured traffic feeds internal/ids, reproducing the
// "sandbox evaluation reports" pipeline of §4.3.
package sandbox

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// Proto identifies a captured flow's protocol.
type Proto string

// Flow protocols.
const (
	ProtoDNS  Proto = "dns"
	ProtoTCP  Proto = "tcp"
	ProtoSMTP Proto = "smtp"
	ProtoHTTP Proto = "http"
)

// Flow is one captured network interaction.
type Flow struct {
	Proto   Proto
	Src     netip.Addr
	Dst     netip.Addr
	DstPort uint16
	// Payload is a compact description of the exchange the IDS can match on
	// (DNS question, TCP banner, SMTP envelope summary).
	Payload string
	// Answered reports whether the peer responded.
	Answered bool
}

// String renders the flow for reports.
func (f Flow) String() string {
	return fmt.Sprintf("%s %s -> %s:%d %q", f.Proto, f.Src, f.Dst, f.DstPort, f.Payload)
}

// DNSRecord captures one resolved DNS exchange in structured form.
type DNSRecord struct {
	Server netip.Addr
	Direct bool // true when the sample queried a specific server, not the default resolver
	// Encrypted marks a lookup carried over DoH: the wire was an opaque TLS
	// session, so this record exists only because the sandbox instruments
	// the process — a network tap would not have it.
	Encrypted bool
	Question  dns.Question
	RCode     dns.RCode
	Answers   []dns.RR
}

// Env is the network API malware behaviour programs run against.
type Env interface {
	// QueryDNS sends a query straight to the given server — the UR retrieval
	// path.
	QueryDNS(server netip.Addr, name dns.Name, qtype dns.Type) (*dns.Message, error)
	// ResolveDefault resolves through the victim's configured resolver — the
	// normal path defenders can observe end-to-end.
	ResolveDefault(name dns.Name, qtype dns.Type) (*dns.Message, error)
	// ConnectTCP opens a connection and exchanges a banner.
	ConnectTCP(dst netip.Addr, port uint16, payload string) error
	// SendSMTP delivers a message to an SMTP endpoint.
	SendSMTP(dst netip.Addr, envelope string) error
}

// EncryptedEnv is the optional Env extension for malware that tunnels its
// DNS lookups over an encrypted transport. The sandbox's capture environment
// implements it; behaviour programs type-assert and fall back to plaintext
// QueryDNS when the environment cannot.
type EncryptedEnv interface {
	// QueryDoH resolves name via RFC 8484 against the server's DoH
	// endpoint. On the wire a defender sees only a TLS session to port 443
	// — no question text, no answer, no payload marker for signatures to
	// match. The structured DNSRecord is still captured (with Encrypted
	// set): the sandbox instruments the process, not the network, so
	// endpoint-visibility defenses keep working where payload signatures
	// go blind.
	QueryDoH(server netip.Addr, name dns.Name, qtype dns.Type) (*dns.Message, error)
}

// Sample is a malware specimen: identity plus a behaviour program.
type Sample struct {
	Name   string
	Family string
	SHA256 string
	// Released is a free-form version date ("2021-12-12") used by case
	// studies.
	Released string
	Behavior func(env Env) error
}

// Report is the evaluation result for one sample.
type Report struct {
	Sample *Sample
	Flows  []Flow
	DNS    []DNSRecord
	// Err is the behaviour program's terminal error, if any (C2 down etc.).
	Err error
}

// ContactedIPs returns the distinct non-DNS destination IPs.
func (r *Report) ContactedIPs() []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, f := range r.Flows {
		if f.Proto == ProtoDNS {
			continue
		}
		if !seen[f.Dst] {
			seen[f.Dst] = true
			out = append(out, f.Dst)
		}
	}
	return out
}

// Sandbox executes samples on the fabric from a dedicated victim IP.
type Sandbox struct {
	fabric     *simnet.Fabric
	victimAddr netip.Addr
	resolver   netip.Addr // the default resolver's address
	client     *dnsio.Client
}

// New creates a sandbox whose victim machine sits at victimAddr and uses
// defaultResolver for normal resolution.
func New(fabric *simnet.Fabric, victimAddr, defaultResolver netip.Addr) *Sandbox {
	c := dnsio.NewClient(&dnsio.SimTransport{Fabric: fabric, Src: victimAddr})
	c.Retries = 1
	return &Sandbox{
		fabric:     fabric,
		victimAddr: victimAddr,
		resolver:   defaultResolver,
		client:     c,
	}
}

// VictimAddr returns the sandboxed machine's IP.
func (s *Sandbox) VictimAddr() netip.Addr { return s.victimAddr }

// Run executes a sample and returns its traffic report.
func (s *Sandbox) Run(sample *Sample) *Report {
	rep := &Report{Sample: sample}
	env := &captureEnv{sb: s, rep: rep}
	if sample.Behavior != nil {
		rep.Err = sample.Behavior(env)
	}
	return rep
}

// RunAll evaluates a batch of samples.
func (s *Sandbox) RunAll(samples []*Sample) []*Report {
	out := make([]*Report, len(samples))
	for i, smp := range samples {
		out[i] = s.Run(smp)
	}
	return out
}

// captureEnv implements Env with flow recording.
type captureEnv struct {
	sb  *Sandbox
	mu  sync.Mutex
	rep *Report
}

func (e *captureEnv) record(f Flow) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.Flows = append(e.rep.Flows, f)
}

func (e *captureEnv) recordDNS(rec DNSRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rep.DNS = append(e.rep.DNS, rec)
}

func (e *captureEnv) queryVia(server netip.Addr, name dns.Name, qtype dns.Type, direct bool) (*dns.Message, error) {
	resp, err := e.sb.client.Query(context.Background(),
		netip.AddrPortFrom(server, dnsio.DNSPort), name, qtype)
	flow := Flow{
		Proto: ProtoDNS, Src: e.sb.victimAddr, Dst: server, DstPort: dnsio.DNSPort,
		Payload: fmt.Sprintf("query %s %s direct=%v", name.String(), qtype, direct),
	}
	rec := DNSRecord{Server: server, Direct: direct,
		Question: dns.Question{Name: name, Type: qtype, Class: dns.ClassINET}}
	if err == nil {
		flow.Answered = true
		rec.RCode = resp.Header.RCode
		rec.Answers = resp.Answers
	}
	e.record(flow)
	e.recordDNS(rec)
	return resp, err
}

// QueryDNS implements Env.
func (e *captureEnv) QueryDNS(server netip.Addr, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	return e.queryVia(server, name, qtype, true)
}

// QueryDoH implements EncryptedEnv. The resolution rides the same simulated
// exchange path as QueryDNS — identical answers — but the captured flow is
// what a network tap would see: opaque TLS application data to port 443.
func (e *captureEnv) QueryDoH(server netip.Addr, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	resp, err := e.sb.client.Query(context.Background(),
		netip.AddrPortFrom(server, dnsio.DNSPort), name, qtype)
	flow := Flow{
		Proto: ProtoHTTP, Src: e.sb.victimAddr, Dst: server, DstPort: 443,
		Payload: "tls1.3 application-data",
	}
	rec := DNSRecord{Server: server, Direct: true, Encrypted: true,
		Question: dns.Question{Name: name, Type: qtype, Class: dns.ClassINET}}
	if err == nil {
		flow.Answered = true
		rec.RCode = resp.Header.RCode
		rec.Answers = resp.Answers
	}
	e.record(flow)
	e.recordDNS(rec)
	return resp, err
}

// ResolveDefault implements Env.
func (e *captureEnv) ResolveDefault(name dns.Name, qtype dns.Type) (*dns.Message, error) {
	return e.queryVia(e.sb.resolver, name, qtype, false)
}

// ConnectTCP implements Env.
func (e *captureEnv) ConnectTCP(dst netip.Addr, port uint16, payload string) error {
	_, err := e.sb.fabric.ExchangeReliable(e.sb.victimAddr,
		simnet.Endpoint{Addr: dst, Port: port}, []byte(payload))
	e.record(Flow{
		Proto: ProtoTCP, Src: e.sb.victimAddr, Dst: dst, DstPort: port,
		Payload: payload, Answered: err == nil,
	})
	return err
}

// SendSMTP implements Env.
func (e *captureEnv) SendSMTP(dst netip.Addr, envelope string) error {
	_, err := e.sb.fabric.ExchangeReliable(e.sb.victimAddr,
		simnet.Endpoint{Addr: dst, Port: 25}, []byte("EHLO victim\r\n"+envelope))
	e.record(Flow{
		Proto: ProtoSMTP, Src: e.sb.victimAddr, Dst: dst, DstPort: 25,
		Payload: envelope, Answered: err == nil,
	})
	return err
}
