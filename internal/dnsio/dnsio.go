// Package dnsio moves DNS messages between clients and servers. It provides:
//
//   - Client: a query engine with ID generation, response validation, UDP
//     truncation fallback to TCP, and bounded retries.
//   - Transport: the byte-moving abstraction under Client, with two
//     implementations — SimTransport over the internal/simnet fabric, and
//     NetTransport over real UDP/TCP sockets from the net package.
//   - Server / SimService: the serving side, adapting a Responder to real
//     sockets or the fabric, including EDNS0-aware UDP truncation.
//
// URHunter runs its measurement sweeps over SimTransport; the examples and
// integration tests also exercise NetTransport against loopback sockets so
// the codec is proven over a genuine network path.
package dnsio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/simnet"
)

// DNSPort is the standard DNS service port.
const DNSPort = 53

// simTCPPortOffset separates the fabric endpoint carrying TCP-semantics
// exchanges from the UDP-semantics endpoint on the same IP.
const simTCPPortOffset = 10000

// Transport moves one packed DNS message to a server and returns the packed
// response. tcp selects reliable (no truncation) semantics.
//
// buf is storage the caller lends for the response: its contents are
// overwritten from the start, and a response that fits its capacity comes back
// as buf re-sliced, valid until the caller next reuses buf. A transport may
// instead return a slice of its own making (one that outgrew buf, or a stream
// read that sizes itself); nil buf always does. packed is not retained.
type Transport interface {
	Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error)
}

// Errors returned by the client.
var (
	ErrIDMismatch       = errors.New("dnsio: response ID does not match query")
	ErrQuestionMismatch = errors.New("dnsio: response question does not match query")
	ErrNotResponse      = errors.New("dnsio: message is not a response")
)

// Client issues DNS queries over a Transport.
type Client struct {
	Transport Transport
	// Retries is the number of additional attempts after a transient failure
	// (timeout, spoofed or malformed response). Permanent failures — an
	// unreachable endpoint, a refused TCP dial — return after the first
	// attempt regardless. Negative values behave like zero: the query is
	// always attempted once.
	Retries int
	// Timeout bounds each attempt when the context has no deadline.
	Timeout time.Duration
	// Backoff schedules the pause before each retry. On the sim fabric the
	// pause is booked on the virtual clock (no real sleep); on real sockets
	// it is a timer. The zero value disables backoff; NewClient installs
	// DefaultBackoff.
	Backoff BackoffPolicy
	// Breakers is the per-server circuit-breaker set, shared by every worker
	// using this client: after Threshold consecutive failed exchanges to one
	// server, further queries fail fast with ErrCircuitOpen until a half-open
	// probe succeeds. nil disables breaking; NewClient installs the default.
	Breakers *BreakerSet

	// Query IDs are drawn from the Scratch, so the workers sharing one client
	// write no common word per query; the client only says where a scratch's
	// stream starts. idStreams is a Weyl sequence advanced once per stream,
	// idEpoch counts SeedIDs calls: a scratch that started its stream in an
	// earlier epoch starts over.
	idStreams atomic.Uint64
	idEpoch   atomic.Uint32
}

// weyl is the odd constant the ID sequences advance by (2^64 / phi).
const weyl = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewClient builds a client with sane defaults over the given transport.
func NewClient(t Transport) *Client {
	c := &Client{
		Transport: t,
		Retries:   2,
		Timeout:   3 * time.Second,
		Backoff:   DefaultBackoff(),
		Breakers:  NewBreakerSet(DefaultBreakerConfig()),
	}
	c.SeedIDs(time.Now().UnixNano())
	return c
}

// SeedIDs makes query-ID generation deterministic (for tests): the streams
// handed out from here on, in the order scratches ask for them, are a pure
// function of the seed, and so is each stream's ID sequence.
func (c *Client) SeedIDs(seed int64) {
	c.idStreams.Store(uint64(seed))
	c.idEpoch.Add(1)
}

// nextID draws the next query ID of s's stream — splitmix64 over a Weyl
// sequence the scratch advances alone — starting the stream from c if s has
// none of c's current epoch.
func (s *Scratch) nextID(c *Client) uint16 {
	if epoch := c.idEpoch.Load(); s.idClient != c || s.idEpoch != epoch {
		s.idClient, s.idEpoch = c, epoch
		s.idState = mix64(c.idStreams.Add(weyl))
	}
	s.idState += weyl
	return uint16(mix64(s.idState))
}

// queryPool recycles the decoded query on the serve path, and with it the
// reply it lends (dns.Message.LendReply): no Responder retains either past
// HandleQuery — the reply copies the question section and is packed before the
// query goes back to the pool — so each serving goroutine effectively reuses
// one query and one reply.
var queryPool = sync.Pool{New: func() any { return new(dns.Message) }}

// Scratch is the per-exchange storage of one caller: the outgoing query and
// its wire form, the response's wire bytes and the message they decode into.
// A sweep worker owns one for its whole life and probes through QueryInto, so
// a probe leaves no garbage of the client's; what QueryInto and Decode return
// lives in the scratch and is valid until its next use. The zero value is
// ready. A Scratch must not be used from two goroutines at once.
type Scratch struct {
	query  dns.Message
	packed []byte
	wire   []byte
	msg    *dns.Message // what responses decode into; nil until the first, and after Take

	// Known is the caller's memo of the answers it has already derived what
	// it needs from, nil for none. A response whose ID is the query's, with
	// QR set and TC clear, that Known holds for the query's question is
	// accepted without being decoded: QueryInto returns it with a nil
	// message. Every other response is decoded and validated, which stays
	// the only validator as long as Known only holds bytes that path
	// accepted.
	Known KnownAnswers

	// The query-ID stream: the client and seeding epoch it was started from,
	// and where it stands.
	idClient *Client
	idEpoch  uint32
	idState  uint64

	// The breaker of the server last exchanged with: a sweep job probes one
	// server many times running. One found is kept, as a set never drops one;
	// none found holds while the set's stored count is still brStored.
	brSet    *BreakerSet
	brAddr   netip.Addr
	br       *breaker
	brStored int64
}

// KnownAnswers is a memo of answers, keyed by their wire form from octet 2
// on: everything after the ID, which is all two answers to one question can
// differ in and still be the same answer.
type KnownAnswers interface {
	// Known reports whether the memo holds an answer to q whose wire form
	// from octet 2 on equals resp[2:]. resp is lent for the call only.
	Known(resp []byte, q dns.Question) bool
}

// known reports whether raw is an answer to q that s.Known holds. The ID, QR
// and TC are checked here, before the memo is asked: a spoofed ID must be
// rejected, and a truncated answer retried over TCP, exactly as the decode
// path does.
func (s *Scratch) known(q *dns.Message, raw []byte) bool {
	return s.Known != nil && len(raw) >= 12 && len(q.Questions) == 1 &&
		binary.BigEndian.Uint16(raw) == q.Header.ID &&
		raw[2]&0x80 != 0 && raw[2]&0x02 == 0 && // QR set, TC clear
		s.Known.Known(raw, q.Questions[0])
}

// message returns the message the scratch decodes into.
func (s *Scratch) message() *dns.Message {
	if s.msg == nil {
		s.msg = new(dns.Message)
	}
	return s.msg
}

// Take hands the caller the message QueryInto or Decode last returned: it is
// the caller's own from then on, and the scratch decodes its next response
// into a new one.
func (s *Scratch) Take() *dns.Message {
	m := s.msg
	s.msg = nil
	return m
}

// breaker returns set's breaker for addr: nil for a nil set, and for a
// server that has not failed since the set was made.
func (s *Scratch) breaker(set *BreakerSet, addr netip.Addr) *breaker {
	if set == nil {
		return nil
	}
	if s.brSet != set || s.brAddr != addr || s.br == nil && s.brStored != set.stored.Load() {
		n := set.stored.Load() // before the lookup, so a breaker stored after it moves the count
		b, _ := set.m.Load(addr)
		s.brSet, s.brAddr, s.br, s.brStored = set, addr, b, n
	}
	return s.br
}

// report feeds an exchange's outcome to set's breaker for addr. A success
// with no breaker changes nothing; a failure stores the breaker it lacks.
func (s *Scratch) report(set *BreakerSet, addr netip.Addr, ok bool) {
	b := s.breaker(set, addr)
	if b == nil {
		if ok || set == nil {
			return
		}
		var loaded bool
		if b, loaded = set.m.LoadOrStore(addr, new(breaker)); !loaded {
			set.stored.Add(1)
		}
		s.br = b
	}
	b.report(set, ok)
}

// Decode parses wire into the scratch's message, as QueryInto does with a
// server's answer — a resumed sweep feeds journaled answers through it.
func (s *Scratch) Decode(wire []byte) (*dns.Message, error) {
	m := s.message()
	if err := m.UnpackFrom(wire); err != nil {
		return nil, err
	}
	return m, nil
}

// scratchPool lends Query and QueryWire the buffers a caller of
// QueryInto brings itself; their results are decoded into a fresh message and
// never point into the pooled storage.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// borrowScratch takes a scratch from the pool. Which one a caller gets is the
// runtime's choice, and a seeded client's IDs must not depend on it, so the
// borrowed scratch starts a new ID stream.
func borrowScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.idClient = nil
	return s
}

// Query sends a (name, type) question to server and returns the validated
// response, a message of the caller's own.
func (c *Client) Query(ctx context.Context, server netip.AddrPort, name dns.Name, t dns.Type) (*dns.Message, error) {
	s := borrowScratch()
	defer scratchPool.Put(s)
	resp := new(dns.Message)
	if _, _, err := c.exchange(ctx, s, server, c.question(s, name, t), resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// QueryWire is Query plus the validated response's wire bytes, exactly as the
// server sent them, so a caller that will journal the answer need not re-pack
// it. Both the message and the bytes are the caller's own: no later exchange,
// on this goroutine or another, touches them.
func (c *Client) QueryWire(ctx context.Context, server netip.AddrPort, name dns.Name, t dns.Type) (*dns.Message, []byte, error) {
	s := borrowScratch()
	defer scratchPool.Put(s)
	resp := new(dns.Message)
	raw, _, err := c.exchange(ctx, s, server, c.question(s, name, t), resp)
	if err != nil {
		return nil, nil, err
	}
	return resp, append([]byte(nil), raw...), nil
}

// QueryInto is QueryWire through the caller's scratch: the returned message
// and wire bytes live in s, and are valid until s is next used. Anything the
// caller keeps from them it copies first; Take keeps the message whole. An
// answer s.Known holds comes back undecoded, as its wire bytes and a nil
// message.
func (c *Client) QueryInto(ctx context.Context, s *Scratch, server netip.AddrPort, name dns.Name, t dns.Type) (*dns.Message, []byte, error) {
	resp := s.message()
	raw, known, err := c.exchange(ctx, s, server, c.question(s, name, t), resp)
	if err != nil || known {
		return nil, raw, err
	}
	return resp, raw, nil
}

// question builds the (name, type) query in s; exchange gives it its ID.
func (c *Client) question(s *Scratch, name dns.Name, t dns.Type) *dns.Message {
	q := &s.query
	q.Header = dns.Header{RecursionDesired: true}
	q.Questions = append(q.Questions[:0], dns.Question{Name: name, Type: t, Class: dns.ClassINET})
	q.Answers, q.Authority, q.Additional = q.Answers[:0], q.Authority[:0], q.Additional[:0]
	return q
}

// exchange is the one exchange path: q packed into s, the attempts made with
// s's response buffer lent to the transport, the accepted response decoded
// into resp — unless s.Known holds it, when it is accepted undecoded and
// known is true. The returned wire bytes are only valid until s is next used.
func (c *Client) exchange(ctx context.Context, s *Scratch, server netip.AddrPort, q, resp *dns.Message) ([]byte, bool, error) {
	// Every attempt goes out under a fresh ID from s's stream.
	q.Header.ID = s.nextID(c)
	packed, err := q.AppendPack(s.packed[:0])
	if err != nil {
		return nil, false, fmt.Errorf("dnsio: pack query: %w", err)
	}
	s.packed = packed // keep any grown capacity for the next exchange
	if s.wire == nil {
		// Room for any datagram a server may send, so a socket read lands in it.
		s.wire = make([]byte, 0, dns.MaxEDNS0Size)
	}
	// Deadline management only matters for transports that can block on
	// real I/O; the in-memory fabric completes synchronously.
	if c.Timeout > 0 && !isInstant(c.Transport) {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.Timeout)
			defer cancel()
		}
	}
	if b := s.breaker(c.Breakers, server.Addr()); b != nil && !b.allow(c.Breakers.cfg) {
		return nil, false, fmt.Errorf("dnsio: exchange with %s failed: %w", server, ErrCircuitOpen)
	}
	// Retries < 0 must still attempt once: an empty attempt loop would
	// otherwise report a useless "failed: %!w(<nil>)".
	retries := c.Retries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		// Done is an atomic load once the channel exists (Err would take the
		// context's mutex, shared by every sweep worker), and nil — never
		// ready — for a context that cannot be cancelled.
		select {
		case <-ctx.Done():
			if lastErr != nil {
				s.report(c.Breakers, server.Addr(), false)
			}
			return nil, false, ctx.Err()
		default:
		}
		if attempt > 0 {
			if err := c.sleep(ctx, c.Backoff.Delay(server, attempt)); err != nil {
				break
			}
			q.Header.ID = s.nextID(c)
			packed[0], packed[1] = byte(q.Header.ID>>8), byte(q.Header.ID)
		}
		raw, err := c.Transport.Exchange(ctx, s.wire, server, packed, false)
		if err != nil {
			lastErr = err
			if IsPermanent(err) {
				break
			}
			continue
		}
		if s.known(q, raw) {
			s.report(c.Breakers, server.Addr(), true)
			return raw, true, nil
		}
		if err := validate(q, raw, resp); err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			raw, err = c.Transport.Exchange(ctx, s.wire, server, packed, true)
			if err != nil {
				lastErr = err
				if IsPermanent(err) {
					break
				}
				continue
			}
			if err := validate(q, raw, resp); err != nil {
				lastErr = err
				continue
			}
		}
		s.report(c.Breakers, server.Addr(), true)
		return raw, false, nil
	}
	s.report(c.Breakers, server.Addr(), false)
	if lastErr == nil {
		lastErr = errors.New("no attempt completed")
	}
	return nil, false, fmt.Errorf("dnsio: exchange with %s failed: %w", server, lastErr)
}

// validate decodes raw into resp and checks it answers q.
func validate(q *dns.Message, raw []byte, resp *dns.Message) error {
	if err := resp.UnpackFrom(raw); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if !resp.Header.Response {
		return ErrNotResponse
	}
	if resp.Header.ID != q.Header.ID {
		return ErrIDMismatch
	}
	if len(resp.Questions) > 0 && resp.Question() != q.Question() {
		return ErrQuestionMismatch
	}
	return nil
}

// Responder is the server-side query handler.
type Responder interface {
	HandleQuery(src netip.Addr, q *dns.Message) *dns.Message
}

// ResponderFunc adapts a function to Responder.
type ResponderFunc func(src netip.Addr, q *dns.Message) *dns.Message

// HandleQuery implements Responder.
func (f ResponderFunc) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return f(src, q)
}

// Via values naming the transport that carried a query to a server.
const (
	ViaUDP = "udp"
	ViaTCP = "tcp"
	ViaDoT = "dot"
	ViaDoH = "doh"
)

// ViaResponder is the optional interface a Responder implements to learn
// which transport carried each query (the Via* constants). Front-ends that
// keep per-transport counters — urwatchd's /metrics — implement it; every
// serve path falls back to plain HandleQuery when it is absent.
type ViaResponder interface {
	HandleQueryVia(src netip.Addr, q *dns.Message, via string) *dns.Message
}

// dispatchQuery routes one decoded query to the responder, tagging the
// carrying transport when the responder cares.
func dispatchQuery(r Responder, src netip.Addr, q *dns.Message, via string) *dns.Message {
	if vr, ok := r.(ViaResponder); ok {
		return vr.HandleQueryVia(src, q, via)
	}
	return r.HandleQuery(src, q)
}

// WireResponder is the optional interface a Responder implements to answer
// some queries without decoding them: AppendWire reads the raw query and,
// when it is a shape the responder answers in wire form, appends the packed
// reply — already truncated to the requester's payload size when via is
// ViaUDP — to dst and returns handled=true. It may build a dns.Message for
// the reply (an answer it has not packed before) but never decodes the
// query. Otherwise it returns dst untouched and handled=false, having
// consumed and counted nothing, and the query takes the ordinary unpack,
// HandleQuery, pack path, whose reply a handled query's must equal byte for
// byte. The DNSBL answers, the simulated authorities' answers and refusals,
// and the open resolvers' answers take it. ServeRaw, the socket front-ends
// and the simulated fabric's handlers (AttachSim) try it first.
type WireResponder interface {
	AppendWire(dst []byte, src netip.Addr, raw []byte, via string) (out []byte, handled bool)
}

// ClampUDPSize bounds an EDNS0-advertised payload size to what the UDP serve
// path honours: no less than the classic 512 octets, no more than the size
// this server advertises itself. WireResponders truncate by the same rule.
func ClampUDPSize(advertised int) int {
	return min(max(advertised, dns.MaxUDPSize), dns.MaxEDNS0Size)
}

// udpPayloadSize extracts the EDNS0-advertised payload size from a query,
// defaulting to the classic 512 octets.
func udpPayloadSize(q *dns.Message) int {
	for _, rr := range q.Additional {
		if rr.Type() == dns.TypeOPT {
			return ClampUDPSize(int(rr.Class))
		}
	}
	return dns.MaxUDPSize
}

// ServeRaw runs one raw query through the serve path for the named transport
// and returns the packed reply, nil for no reply. A WireResponder gets the
// first try; otherwise, or when it declines, the query is unpacked,
// dispatched (tagging via for ViaResponder implementations) and the reply
// packed. UDP answers honour the EDNS0 payload size and truncate; every other
// transport is stream- or HTTP-framed, so responses pack whole. The DoH
// front-end in internal/transport calls this directly.
func ServeRaw(r Responder, src netip.Addr, raw []byte, via string) []byte {
	return appendServe(nil, r, src, raw, via)
}

// appendServe is ServeRaw with the reply appended to dst. An empty result
// means no reply.
func appendServe(dst []byte, r Responder, src netip.Addr, raw []byte, via string) []byte {
	if wr, ok := r.(WireResponder); ok {
		if out, handled := wr.AppendWire(dst, src, raw, via); handled {
			return out
		}
	}
	return serveMessage(dst, r, src, raw, via)
}

// serveMessage is the message path: unpack, dispatch, pack — the reply
// appended to dst. Malformed queries yield FORMERR when the header survives,
// nothing otherwise.
func serveMessage(dst []byte, r Responder, src netip.Addr, raw []byte, via string) []byte {
	q := queryPool.Get().(*dns.Message)
	defer queryPool.Put(q)
	if err := q.UnpackFrom(raw); err != nil {
		if len(raw) >= 12 {
			var bad dns.Message
			bad.Header.ID = uint16(raw[0])<<8 | uint16(raw[1])
			bad.Header.Response = true
			bad.Header.RCode = dns.RCodeFormat
			out, _ := bad.AppendPack(dst)
			return out
		}
		return nil
	}
	q.LendReply()
	resp := dispatchQuery(r, src, q, via)
	if resp == nil {
		return nil
	}
	if cap(dst) == 0 {
		dst = make([]byte, 0, 512) // what Message.Pack starts from
	}
	maxSize := 0 // stream- and HTTP-framed replies pack whole
	if via == ViaUDP {
		maxSize = udpPayloadSize(q)
	}
	out, err := resp.AppendPackTruncated(dst, maxSize)
	if err != nil {
		fail := q.Reply()
		fail.Header.RCode = dns.RCodeServFail
		out, _ = fail.AppendPack(dst)
	}
	return out
}

// AttachSim registers a responder on the fabric at addr:53 (UDP semantics)
// and the paired reliable endpoint (TCP semantics). It returns a detach
// function. Whether r is a WireResponder is settled here, once: a simulated
// authority or open resolver tries its wire path first on every exchange,
// and a responder without one pays no per-exchange check.
func AttachSim(f *simnet.Fabric, addr netip.Addr, r Responder) (func(), error) {
	udp := simnet.Endpoint{Addr: addr, Port: DNSPort}
	tcp := simnet.Endpoint{Addr: addr, Port: DNSPort + simTCPPortOffset}
	serve := func(via string) simnet.HandlerFunc {
		wr, ok := r.(WireResponder)
		if !ok {
			return func(dst []byte, src netip.Addr, raw []byte) []byte {
				return serveMessage(dst, r, src, raw, via)
			}
		}
		return func(dst []byte, src netip.Addr, raw []byte) []byte {
			if out, handled := wr.AppendWire(dst, src, raw, via); handled {
				return out
			}
			return serveMessage(dst, r, src, raw, via)
		}
	}
	uh, th := serve(ViaUDP), serve(ViaTCP)
	if err := f.Listen(udp, uh); err != nil {
		return nil, err
	}
	if err := f.Listen(tcp, th); err != nil {
		f.Unlisten(udp)
		return nil, err
	}
	return func() {
		f.Unlisten(udp)
		f.Unlisten(tcp)
	}, nil
}

// instantTransport marks transports that never block on real I/O, letting
// the client skip per-query deadline plumbing.
type instantTransport interface {
	Instant() bool
}

func isInstant(t Transport) bool {
	it, ok := t.(instantTransport)
	return ok && it.Instant()
}

// SimTransport is a Transport over the fabric.
type SimTransport struct {
	Fabric *simnet.Fabric
	// Src is the client's IP on the fabric.
	Src netip.Addr
}

// Instant implements instantTransport: fabric exchanges are synchronous
// function calls.
func (t *SimTransport) Instant() bool { return true }

// Exchange implements Transport.
func (t *SimTransport) Exchange(_ context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	ep := simnet.Endpoint{Addr: server.Addr(), Port: server.Port()}
	if tcp {
		ep.Port += simTCPPortOffset
		return t.Fabric.ExchangeReliableInto(buf, t.Src, ep, packed)
	}
	return t.Fabric.ExchangeInto(buf, t.Src, ep, packed, 0)
}

// NetTransport is a Transport over real UDP and TCP sockets.
type NetTransport struct{}

// Exchange implements Transport. A datagram is read into buf when it has room
// for the largest one a server may send; a stream response sizes itself.
func (t *NetTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if tcp {
		return t.exchangeTCP(ctx, server, packed)
	}
	return t.exchangeUDP(ctx, buf, server, packed)
}

func (t *NetTransport) exchangeUDP(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte) ([]byte, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if _, err := conn.Write(packed); err != nil {
		return nil, err
	}
	buf = buf[:cap(buf)]
	if len(buf) < dns.MaxEDNS0Size {
		buf = make([]byte, dns.MaxEDNS0Size)
	}
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func (t *NetTransport) exchangeTCP(ctx context.Context, server netip.AddrPort, packed []byte) ([]byte, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return ExchangeStream(ctx, conn, packed)
}

// ExchangeStream writes one framed query on an open stream connection and
// reads one framed response, both under ctx's deadline — the exchange plain
// TCP and DoT share once their connection is up.
func ExchangeStream(ctx context.Context, conn net.Conn, packed []byte) ([]byte, error) {
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := WriteFrame(conn, packed); err != nil {
		return nil, err
	}
	return ReadFrame(conn)
}

// WriteFrame writes the RFC 1035 §4.2.2 two-octet length prefix followed by
// the message, in one Write — the stream framing shared by plain TCP and
// TLS-wrapped DoT (RFC 7858 §3.3 carries TCP framing unchanged over the TLS
// session), so a frame is one segment, or one TLS record.
func WriteFrame(w io.Writer, msg []byte) error {
	return writeFramed(w, append(make([]byte, 2, 2+len(msg)), msg...))
}

// writeFramed fills the two octets reserved at the head of frame with the
// length of the message after them and writes the frame in one Write.
func writeFramed(w io.Writer, frame []byte) error {
	n := len(frame) - 2
	if n > dns.MaxMessageSize {
		return errors.New("dnsio: message too large for stream framing")
	}
	binary.BigEndian.PutUint16(frame, uint16(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed DNS message from a stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
