// Package transport carries the DNS exchange over encrypted transports: DoT
// (RFC 7858 — TLS with the RFC 1035 two-octet stream framing) and DoH
// (RFC 8484 — DNS wire format in HTTP GET ?dns= base64url parameters or POST
// application/dns-message bodies), next to the plain UDP/TCP paths dnsio
// already provides.
//
// Two families of implementations live here:
//
//   - Simulated: SimDoT and SimDoH wrap dnsio.SimTransport and route through
//     the exact fabric endpoints the plain transports use, so per-endpoint
//     chaos draws — hashed from (seed, endpoint, sequence) — are bit-identical
//     across transports and a sweep's verdicts never depend on the transport.
//     Encryption shows up only as modeled cost on the virtual clock: a
//     connection handshake booked once per server (amortized across that
//     server's probes) and a per-message record/header overhead.
//
//   - Real sockets: NetDoT dials TLS and frames over the session, NetDoH
//     speaks RFC 8484 against any HTTP endpoint; DoTServer and DoHHandler are
//     the serving sides, adapting any dnsio.Responder. urwatchd mounts
//     DoHHandler at /dns-query, and cmd/dnsq -transport exercises all four.
//
// Failure classification stays in dnsio: TLS handshake failures wrap
// dnsio.ErrTLSHandshake (permanent — fail fast), non-200 DoH statuses wrap
// dnsio.ErrHTTPStatus (transient — retried, breaker-visible).
package transport

import (
	"fmt"
	"net/netip"

	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// Kind names a wire transport for the DNS exchange.
type Kind string

// The transports a sweep or client can select.
const (
	KindUDP Kind = "udp" // plain datagrams with TC fallback to TCP
	KindTCP Kind = "tcp" // plain stream framing for every query
	KindDoT Kind = "dot" // RFC 7858 DNS over TLS
	KindDoH Kind = "doh" // RFC 8484 DNS over HTTPS
)

// SweepKinds are the transports urhunter sweeps over; plain TCP is a
// fallback mechanism, not a sweep dimension.
var SweepKinds = []Kind{KindUDP, KindDoT, KindDoH}

// ParseKind validates a -transport flag value. The empty string selects UDP,
// keeping journals and configs from before the transport dimension valid.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindUDP:
		return KindUDP, nil
	case KindTCP:
		return KindTCP, nil
	case KindDoT:
		return KindDoT, nil
	case KindDoH:
		return KindDoH, nil
	}
	return "", fmt.Errorf("transport: unknown kind %q (want udp, tcp, dot, or doh)", s)
}

// String returns the flag-form name.
func (k Kind) String() string {
	if k == "" {
		return string(KindUDP)
	}
	return string(k)
}

// NewSim builds the simulated transport for a kind over the fabric. UDP and
// TCP share dnsio.SimTransport (the tcp flag per exchange picks the reliable
// endpoint); DoT and DoH layer modeled crypto costs on top of it.
func NewSim(k Kind, f *simnet.Fabric, src netip.Addr) (dnsio.Transport, error) {
	switch k {
	case "", KindUDP, KindTCP:
		return &dnsio.SimTransport{Fabric: f, Src: src}, nil
	case KindDoT:
		return NewSimDoT(f, src), nil
	case KindDoH:
		return NewSimDoH(f, src), nil
	}
	return nil, fmt.Errorf("transport: no simulated transport for kind %q", k)
}
