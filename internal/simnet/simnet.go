// Package simnet provides the virtual IP network fabric that stands in for
// the live Internet in this reproduction. Services (authoritative
// nameservers, open resolvers, web servers, C2 endpoints) register handlers
// on (IP, port) pairs; clients exchange datagrams or reliable byte blobs with
// any registered endpoint.
//
// The fabric is deliberately synchronous — a request/response exchange is a
// function call — which lets the URHunter pipeline sweep millions of queries
// in-process while exercising exactly the same packed wire bytes that the
// real-socket transport in internal/dnsio moves over UDP/TCP.
//
// The fabric also keeps per-destination query accounting. The paper's ethics
// appendix (§A) commits to a bounded per-server query rate; the accounting
// lets tests assert the collector honours an analogous budget.
//
// Everything the fabric knows about one address — the services bound to its
// ports, their fault profiles, the books of the exchanges sent to it — is one
// record (host), found by one lock-free lookup and guarded by its own lock. An
// exchange writes nothing else: a sweep worker owns a server for a whole job,
// so two workers' exchanges touch no common cache line, and the fabric-wide
// totals are sums taken when somebody asks. Listen, Unlisten and SetFault cost
// O(1) however many endpoints a world binds.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes a request payload and returns a response payload.
// Returning nil means the service drops the request (client observes a
// timeout).
//
// dst is an empty slice whose capacity belongs to the client for the length
// of the exchange: a handler that builds its response per request appends it
// to dst and returns the extended slice, so a client that brought a buffer
// gets its answer without an allocation. dst may be nil (the append then
// allocates, and the response is the client's to keep), and a handler may
// ignore it and return bytes of its own — the fabric never writes into a
// response that does not start at dst.
type Handler interface {
	ServePacket(dst []byte, src netip.Addr, payload []byte) []byte
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(dst []byte, src netip.Addr, payload []byte) []byte

// ServePacket implements Handler.
func (f HandlerFunc) ServePacket(dst []byte, src netip.Addr, payload []byte) []byte {
	return f(dst, src, payload)
}

// Errors reported by the fabric.
var (
	ErrUnreachable = errors.New("simnet: destination unreachable")
	ErrTimeout     = errors.New("simnet: timeout (packet lost)")
)

// Endpoint is an (IP, port) service address.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

// String renders the endpoint as host:port.
func (e Endpoint) String() string {
	return netip.AddrPortFrom(e.Addr, e.Port).String()
}

// service is what one port of a host holds: the handler listening there (nil
// when nothing does) and the fault profile installed on it (nil when none is).
// A profile outlives Unlisten, and may be installed before Listen.
type service struct {
	port  uint16
	h     Handler
	fault *faultState
}

// host is the fabric's record of one address. A host is made the first time
// its address is bound, faulted or sent to — an exchange with an address
// nobody listens on is booked like any other — and never dropped.
type host struct {
	mu sync.Mutex
	// services holds the address's few ports; a linear scan beats a map.
	services []service

	// The books of the exchanges sent to this address, all under mu.
	queries    int64
	virtual    time.Duration // round trips, plus the ExtraRTT of faulted ones
	lossDrops  int64         // dropped by the fabric-wide loss rate
	faultDrops int64         // swallowed by a fault profile
	spoofs     int64
	garbage    int64

	// Hosts are allocated one after another as a world binds its servers, and
	// workers claim servers in that order: pad the record to two whole cache
	// lines so neighbouring hosts' locks never share one.
	_ [48]byte
}

// serviceAt returns the host's entry for port, nil when it has none. The
// pointer is only valid while mu is held.
func (h *host) serviceAt(port uint16) *service {
	for i := range h.services {
		if h.services[i].port == port {
			return &h.services[i]
		}
	}
	return nil
}

// ensureService is serviceAt, adding an empty entry when there is none.
func (h *host) ensureService(port uint16) *service {
	if s := h.serviceAt(port); s != nil {
		return s
	}
	h.services = append(h.services, service{port: port})
	return &h.services[len(h.services)-1]
}

// book adds one to a counter of the host's books.
func (h *host) book(counter *int64) {
	h.mu.Lock()
	*counter++
	h.mu.Unlock()
}

// Fabric is a virtual packet network. The zero value is not usable; call New.
type Fabric struct {
	// hosts maps netip.Addr to *host; the hot path reads it without a lock.
	hosts sync.Map

	lossBits atomic.Uint64 // math.Float64bits of the loss probability
	baseRTT  atomic.Int64  // nanoseconds

	// seed keys every probabilistic draw: the fabric-wide loss and the
	// per-endpoint faults (see faults.go).
	seed int64

	// advanced is the virtual time booked by AdvanceVirtual, which names no
	// destination: retry backoff and the encrypted transports' modeled costs.
	// It is the one word of the fabric written while a sweep runs, so it is
	// kept a cache line away from the fields above, which every exchange reads.
	_        [64]byte
	advanced atomic.Int64
}

// New creates an empty fabric. Seed makes loss and fault injection
// deterministic.
func New(seed int64) *Fabric {
	f := &Fabric{seed: seed}
	f.baseRTT.Store(int64(20 * time.Millisecond))
	return f
}

// hostOf returns the record of addr, making it on first sight.
func (f *Fabric) hostOf(addr netip.Addr) *host {
	if v, ok := f.hosts.Load(addr); ok {
		return v.(*host)
	}
	v, _ := f.hosts.LoadOrStore(addr, &host{})
	return v.(*host)
}

// eachHost calls fn on every host, with its lock held.
func (f *Fabric) eachHost(fn func(*host)) {
	f.hosts.Range(func(_, v any) bool {
		h := v.(*host)
		h.mu.Lock()
		fn(h)
		h.mu.Unlock()
		return true
	})
}

// sum adds up one figure of every host's books.
func (f *Fabric) sum(figure func(*host) int64) int64 {
	var n int64
	f.eachHost(func(h *host) { n += figure(h) })
	return n
}

// SetLossRate configures the probability in [0,1) that any exchange is
// dropped (client observes ErrTimeout).
func (f *Fabric) SetLossRate(p float64) {
	f.lossBits.Store(math.Float64bits(p))
}

// lossRate returns the configured loss probability.
func (f *Fabric) lossRate() float64 {
	return math.Float64frombits(f.lossBits.Load())
}

// BaseRTT returns the per-exchange virtual round-trip time. The
// encrypted transport layer derives its modeled handshake and record-framing
// costs from it.
func (f *Fabric) BaseRTT() time.Duration {
	return time.Duration(f.baseRTT.Load())
}

// Listen registers a handler for an endpoint. It returns an error if the
// endpoint is already taken.
func (f *Fabric) Listen(ep Endpoint, h Handler) error {
	if h == nil {
		return errors.New("simnet: nil handler")
	}
	hst := f.hostOf(ep.Addr)
	hst.mu.Lock()
	defer hst.mu.Unlock()
	svc := hst.ensureService(ep.Port)
	if svc.h != nil {
		return fmt.Errorf("simnet: endpoint %s already bound", ep)
	}
	svc.h = h
	return nil
}

// Unlisten removes a registered endpoint. Removing an unbound endpoint is a
// no-op.
func (f *Fabric) Unlisten(ep Endpoint) {
	f.withService(ep, func(svc *service) { svc.h = nil })
}

// withService calls fn on the endpoint's entry, under its host's lock, if the
// fabric has one; it makes neither host nor entry.
func (f *Fabric) withService(ep Endpoint, fn func(*service)) {
	v, ok := f.hosts.Load(ep.Addr)
	if !ok {
		return
	}
	hst := v.(*host)
	hst.mu.Lock()
	defer hst.mu.Unlock()
	if svc := hst.serviceAt(ep.Port); svc != nil {
		fn(svc)
	}
}

// Bound reports whether any service listens on the endpoint.
func (f *Fabric) Bound(ep Endpoint) (bound bool) {
	f.withService(ep, func(svc *service) { bound = svc.h != nil })
	return bound
}

// Exchange performs a datagram request/response. maxResp > 0 truncates the
// response payload to that many bytes, modelling a UDP read buffer; the DNS
// layer on top handles the TC bit itself, so truncation here simply cuts the
// byte slice. The response is a slice the caller may keep.
func (f *Fabric) Exchange(src netip.Addr, dst Endpoint, payload []byte, maxResp int) ([]byte, error) {
	return f.exchange(nil, src, dst, payload, maxResp, true)
}

// ExchangeReliable performs a stream-style exchange with no size cap and no
// loss, modelling TCP.
func (f *Fabric) ExchangeReliable(src netip.Addr, dst Endpoint, payload []byte) ([]byte, error) {
	return f.exchange(nil, src, dst, payload, 0, false)
}

// ExchangeInto is Exchange with the response written into buf's storage when
// the service builds one per request: buf's contents are overwritten from its
// start, and the returned slice — which is buf re-sliced whenever the response
// fit its capacity — is valid until the caller next reuses buf.
func (f *Fabric) ExchangeInto(buf []byte, src netip.Addr, dst Endpoint, payload []byte, maxResp int) ([]byte, error) {
	return f.exchange(buf[:0], src, dst, payload, maxResp, true)
}

// ExchangeReliableInto is ExchangeReliable under ExchangeInto's buffer rule.
func (f *Fabric) ExchangeReliableInto(buf []byte, src netip.Addr, dst Endpoint, payload []byte) ([]byte, error) {
	return f.exchange(buf[:0], src, dst, payload, 0, false)
}

// exchange is the one exchange path. buf is the empty slice handed to the
// handler (nil when the caller brought no buffer); lossy selects datagram
// semantics — loss injection, one base RTT, maxResp — over stream semantics
// (no loss, handshake + exchange).
//
// The exchange is booked, and the endpoint's handler and fault profile are
// read, under one hold of the destination host's lock; the handler runs
// outside it (a resolver's handler exchanges with other hosts, and may come
// back to this one).
func (f *Fabric) exchange(buf []byte, src netip.Addr, dst Endpoint, payload []byte, maxResp int, lossy bool) ([]byte, error) {
	rtt := time.Duration(f.baseRTT.Load())
	loss := 0.0
	if lossy {
		loss = f.lossRate()
	} else {
		rtt *= 2 // handshake + exchange
	}

	hst := f.hostOf(dst.Addr)
	var h Handler
	var fault *faultState
	hst.mu.Lock()
	if svc := hst.serviceAt(dst.Port); svc != nil {
		h, fault = svc.h, svc.fault
	}
	seq := uint64(hst.queries)
	hst.queries++
	hst.virtual += rtt
	// The loss draw is a pure hash of (seed, address, the address's exchange
	// count): like the per-endpoint faults, it falls on the same exchanges
	// however goroutines interleave across addresses.
	dropped := loss > 0 && h != nil && chaosFloat(f.chaosHash(Endpoint{Addr: dst.Addr}, seq, saltFabricLoss)) < loss
	if dropped {
		hst.lossDrops++
	}
	hst.mu.Unlock()

	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, dst)
	}
	if dropped {
		return nil, ErrTimeout
	}
	var resp []byte
	if fault != nil {
		var err error
		if resp, err = f.applyFault(hst, fault, dst, h, buf, src, payload, lossy); err != nil {
			return nil, err
		}
	} else {
		resp = h.ServePacket(buf, src, payload)
	}
	if resp == nil {
		return nil, ErrTimeout
	}
	if maxResp > 0 && len(resp) > maxResp {
		resp = resp[:maxResp]
	}
	return resp, nil
}

// Exchanges returns the total number of exchanges attempted.
func (f *Fabric) Exchanges() int64 {
	return f.sum(func(h *host) int64 { return h.queries })
}

// Drops returns the number of exchanges dropped, by the fabric-wide loss rate
// or by a fault profile.
func (f *Fabric) Drops() int64 {
	return f.sum(func(h *host) int64 { return h.lossDrops + h.faultDrops })
}

// QueriesTo returns how many exchanges targeted the given IP.
func (f *Fabric) QueriesTo(addr netip.Addr) int64 {
	v, ok := f.hosts.Load(addr)
	if !ok {
		return 0
	}
	h := v.(*host)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.queries
}

// VirtualRTT returns the accumulated virtual round-trip time across all
// exchanges — the wall-clock a real-network run of the same query plan would
// have spent waiting, which the benchmark harness reports alongside CPU time.
func (f *Fabric) VirtualRTT() time.Duration {
	return time.Duration(f.advanced.Load() + f.sum(func(h *host) int64 { return int64(h.virtual) }))
}

// Destinations returns the number of distinct IPs that received traffic.
func (f *Fabric) Destinations() int {
	return int(f.sum(func(h *host) int64 {
		if h.queries > 0 {
			return 1
		}
		return 0
	}))
}
