package transport

import (
	"context"
	"net/netip"
	"time"

	"repro/internal/dnsio"
	"repro/internal/readmap"
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

// simEncrypted is the simulated DoT and DoH transport: it layers modeled
// handshake and record costs over the plain fabric transport. Routing is
// untouched — the wrapped SimTransport hits the same lossy datagram endpoint
// (and the same reliable endpoint on TC fallback) the plain transports hit,
// so fault profiles draw identically and a chaos sweep collects
// byte-identical records on every transport.
type simEncrypted struct {
	inner         dnsio.SimTransport
	handshakeRTTs int64
	recordDiv     int64

	seen readmap.Map[netip.Addr, struct{}] // servers a session is set up with
}

// Exchange implements dnsio.Transport: book the modeled costs, then carry the
// message exactly as the plain transport would.
func (t *simEncrypted) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	base := t.inner.Fabric.BaseRTT()
	if _, loaded := t.seen.LoadOrStore(server.Addr(), struct{}{}); !loaded {
		t.inner.Fabric.AdvanceVirtual(time.Duration(t.handshakeRTTs) * base)
	}
	t.inner.Fabric.AdvanceVirtual(base / time.Duration(t.recordDiv))
	return t.inner.Exchange(ctx, buf, server, packed, tcp)
}

// Instant implements dnsio's instant-transport marker: fabric exchanges are
// synchronous, so the client's deadline plumbing stays off.
func (t *simEncrypted) Instant() bool { return true }

// SleepVirtual books retry backoff on the virtual clock, like the plain
// fabric transport.
func (t *simEncrypted) SleepVirtual(d time.Duration) {
	t.inner.Fabric.AdvanceVirtual(d)
}
