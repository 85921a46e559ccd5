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
// Accounting is built for multi-core sweeps: totals are atomics, the
// per-destination books are sharded by destination address, and the service
// table is a sync.Map — Listen and Unlisten cost O(1) however many endpoints
// a world binds, and an exchange on the hot path takes exactly one shard lock
// and no global lock.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// statShards is the number of per-destination accounting shards. Power of
// two so the shard index is a mask away from the address hash.
const statShards = 64

// statShard keeps the per-destination books for one slice of the address
// space. The loss RNG lives here too, so loss injection never serializes
// exchanges to unrelated destinations.
type statShard struct {
	mu         sync.Mutex
	perDst     map[netip.Addr]int64
	lastQuery  map[netip.Addr]time.Time
	minSpacing time.Duration
	rng        *rand.Rand

	// Pad shards out to their own cache lines so neighbouring shard locks
	// don't false-share under heavy parallel sweeps.
	_ [24]byte
}

// Fabric is a virtual packet network. The zero value is not usable; call New.
type Fabric struct {
	// services maps Endpoint to Handler; the hot path reads it without a lock.
	services sync.Map
	// faults is the per-endpoint chaos configuration, Endpoint to *faultState.
	// faulted counts its entries, so fault-free sweeps pay one atomic load and
	// no map lookup.
	faults  sync.Map
	faulted atomic.Int64

	lossBits    atomic.Uint64 // math.Float64bits of the loss probability
	baseRTT     atomic.Int64  // nanoseconds
	trackPacing atomic.Bool

	// seed also keys the per-endpoint fault draws (see faults.go).
	seed int64

	exchanges  atomic.Int64
	drops      atomic.Int64
	faultDrops atomic.Int64
	spoofs     atomic.Int64
	garbage    atomic.Int64
	virtualRTT atomic.Int64 // nanoseconds

	shards [statShards]statShard
}

// New creates an empty fabric. Seed makes loss and fault injection
// deterministic.
func New(seed int64) *Fabric {
	f := &Fabric{seed: seed}
	f.baseRTT.Store(int64(20 * time.Millisecond))
	for i := range f.shards {
		s := &f.shards[i]
		s.perDst = make(map[netip.Addr]int64)
		s.minSpacing = time.Duration(1<<63 - 1)
		s.rng = rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9))
	}
	return f
}

// shardOf hashes a destination address onto its accounting shard.
func (f *Fabric) shardOf(addr netip.Addr) *statShard {
	a := addr.As16()
	// FNV-1a over the low octets, which carry all the entropy for both the
	// 4-in-6 mapped IPv4 space and sequentially-allocated IPv6 blocks.
	h := uint32(2166136261)
	for _, b := range a[8:] {
		h = (h ^ uint32(b)) * 16777619
	}
	return &f.shards[h&(statShards-1)]
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

// SetTrackPacing enables per-destination inter-query gap tracking (see
// MinSpacing). Tracking costs a time.Now() per exchange, so it is off by
// default; pacing tests switch it on, the measurement sweep does not pay
// for it.
func (f *Fabric) SetTrackPacing(on bool) {
	f.trackPacing.Store(on)
}

// Listen registers a handler for an endpoint. It returns an error if the
// endpoint is already taken.
func (f *Fabric) Listen(ep Endpoint, h Handler) error {
	if h == nil {
		return errors.New("simnet: nil handler")
	}
	if _, bound := f.services.LoadOrStore(ep, h); bound {
		return fmt.Errorf("simnet: endpoint %s already bound", ep)
	}
	return nil
}

// Unlisten removes a registered endpoint. Removing an unbound endpoint is a
// no-op.
func (f *Fabric) Unlisten(ep Endpoint) {
	f.services.Delete(ep)
}

// handlerOf returns the service listening on the endpoint, if any.
func (f *Fabric) handlerOf(ep Endpoint) (Handler, bool) {
	v, ok := f.services.Load(ep)
	if !ok {
		return nil, false
	}
	return v.(Handler), true
}

// Bound reports whether any service listens on the endpoint.
func (f *Fabric) Bound(ep Endpoint) bool {
	_, ok := f.handlerOf(ep)
	return ok
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
func (f *Fabric) exchange(buf []byte, src netip.Addr, dst Endpoint, payload []byte, maxResp int, lossy bool) ([]byte, error) {
	h, ok := f.handlerOf(dst)
	rtt := time.Duration(f.baseRTT.Load())
	if !lossy {
		rtt *= 2 // handshake + exchange
	}
	dropped := f.account(dst.Addr, rtt, lossy)

	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, dst)
	}
	if dropped {
		f.drops.Add(1)
		return nil, ErrTimeout
	}
	var resp []byte
	if st := f.faultOf(dst); st != nil {
		var err error
		if resp, err = f.applyFault(st, dst, h, buf, src, payload, lossy); err != nil {
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

// account books one exchange to dst and reports whether loss injection
// dropped it (lossy exchanges only). Totals are atomics; the per-destination
// count, the loss draw, and the optional pacing book all live under a single
// shard lock keyed by dst.
func (f *Fabric) account(dst netip.Addr, rtt time.Duration, lossy bool) (dropped bool) {
	f.exchanges.Add(1)
	f.virtualRTT.Add(int64(rtt))

	pacing := f.trackPacing.Load()
	var now time.Time
	if pacing {
		now = time.Now()
	}
	loss := 0.0
	if lossy {
		loss = f.lossRate()
	}

	s := f.shardOf(dst)
	s.mu.Lock()
	s.perDst[dst]++
	if loss > 0 {
		dropped = s.rng.Float64() < loss
	}
	if pacing {
		if s.lastQuery == nil {
			s.lastQuery = make(map[netip.Addr]time.Time)
		}
		if last, ok := s.lastQuery[dst]; ok {
			if gap := now.Sub(last); gap < s.minSpacing {
				s.minSpacing = gap
			}
		}
		s.lastQuery[dst] = now
	}
	s.mu.Unlock()
	return dropped
}

// Exchanges returns the total number of exchanges attempted.
func (f *Fabric) Exchanges() int64 {
	return f.exchanges.Load()
}

// Drops returns the number of exchanges dropped by loss injection.
func (f *Fabric) Drops() int64 {
	return f.drops.Load()
}

// QueriesTo returns how many exchanges targeted the given IP.
func (f *Fabric) QueriesTo(addr netip.Addr) int64 {
	s := f.shardOf(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perDst[addr]
}

// VirtualRTT returns the accumulated virtual round-trip time across all
// exchanges — the wall-clock a real-network run of the same query plan would
// have spent waiting, which the benchmark harness reports alongside CPU time.
func (f *Fabric) VirtualRTT() time.Duration {
	return time.Duration(f.virtualRTT.Load())
}

// Destinations returns the number of distinct IPs that received traffic.
func (f *Fabric) Destinations() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		n += len(s.perDst)
		s.mu.Unlock()
	}
	return n
}

// MinSpacing returns the smallest observed gap between two queries to the
// same destination, or (maxDuration, false) when pacing tracking was never
// enabled or no destination saw two queries. Pacing must be switched on with
// SetTrackPacing before the exchanges of interest.
func (f *Fabric) MinSpacing() (time.Duration, bool) {
	min := time.Duration(1<<63 - 1)
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		if s.minSpacing < min {
			min = s.minSpacing
		}
		s.mu.Unlock()
	}
	return min, min != time.Duration(1<<63-1)
}
