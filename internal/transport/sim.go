package transport

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// Modeled crypto costs, in units of the fabric's base RTT. The handshake is
// booked once per (transport, server) pair — a sweep amortizes it across
// every probe to that server, exactly the connection-reuse shape RFC 7766
// prescribes and real DoT/DoH stacks implement. The per-message divisor
// models record framing and (for DoH) HTTP header overhead: baseRTT/div
// extra virtual time per exchange.
//
// With the sweep's defaults (one server swept from one worker, dozens of
// probes per server) these bound the DoH sweep's virtual-clock overhead at
// 1/8 + 2/(probes per server) of plain UDP's; see DESIGN.md §14 for the
// arithmetic and core's TestTransportVirtualCostOnly for the pin.
const (
	// dotHandshakeRTTs: TCP SYN/ACK plus the TLS 1.3 one-RTT handshake.
	dotHandshakeRTTs = 2
	// dohHandshakeRTTs: same TCP+TLS setup — HTTP adds bytes, not rounds.
	dohHandshakeRTTs = 2
	// dotRecordDiv: the 5-byte TLS record header and padding on a ~60-byte
	// query are a small serialization tax.
	dotRecordDiv = 16
	// dohRecordDiv: HTTP/1.1 request line, Host, Content-Type, and status
	// headers dwarf the DNS payload; twice the DoT tax.
	dohRecordDiv = 8
)

// simEncrypted layers modeled handshake and record costs over the plain
// fabric transport. Routing is untouched — the wrapped SimTransport hits the
// same lossy datagram endpoint (and the same reliable endpoint on TC
// fallback) the plain transports hit, so fault profiles draw identically and
// a chaos sweep collects byte-identical records on every transport.
type simEncrypted struct {
	inner         dnsio.SimTransport
	handshakeRTTs int64
	recordDiv     int64

	mu         sync.Mutex
	seen       map[netip.Addr]struct{}
	handshakes int64
}

// SimDoT is the simulated RFC 7858 transport.
type SimDoT struct{ simEncrypted }

// SimDoH is the simulated RFC 8484 transport.
type SimDoH struct{ simEncrypted }

// NewSimDoT builds a DoT transport over the fabric from src.
func NewSimDoT(f *simnet.Fabric, src netip.Addr) *SimDoT {
	return &SimDoT{simEncrypted{
		inner:         dnsio.SimTransport{Fabric: f, Src: src},
		handshakeRTTs: dotHandshakeRTTs,
		recordDiv:     dotRecordDiv,
		seen:          make(map[netip.Addr]struct{}),
	}}
}

// NewSimDoH builds a DoH transport over the fabric from src.
func NewSimDoH(f *simnet.Fabric, src netip.Addr) *SimDoH {
	return &SimDoH{simEncrypted{
		inner:         dnsio.SimTransport{Fabric: f, Src: src},
		handshakeRTTs: dohHandshakeRTTs,
		recordDiv:     dohRecordDiv,
		seen:          make(map[netip.Addr]struct{}),
	}}
}

// Exchange implements dnsio.Transport: book the modeled costs, then carry the
// message exactly as the plain transport would.
func (t *simEncrypted) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	base := t.inner.Fabric.BaseRTT()
	t.mu.Lock()
	if _, ok := t.seen[server.Addr()]; !ok {
		t.seen[server.Addr()] = struct{}{}
		t.handshakes++
		t.inner.Fabric.AdvanceVirtual(time.Duration(t.handshakeRTTs) * base)
	}
	t.mu.Unlock()
	if t.recordDiv > 0 {
		t.inner.Fabric.AdvanceVirtual(base / time.Duration(t.recordDiv))
	}
	return t.inner.Exchange(ctx, buf, server, packed, tcp)
}

// Instant implements dnsio's instant-transport marker: fabric exchanges are
// synchronous, so deadline plumbing and the stall watchdog stay off.
func (t *simEncrypted) Instant() bool { return true }

// SleepVirtual books retry backoff on the virtual clock, like the plain
// fabric transport.
func (t *simEncrypted) SleepVirtual(d time.Duration) {
	t.inner.Fabric.AdvanceVirtual(d)
}

// Handshakes returns how many per-server session setups were booked — the
// numerator of the amortization the TransportSweep benchmark reports.
func (t *simEncrypted) Handshakes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handshakes
}
