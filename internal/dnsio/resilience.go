// Resilience layer for the DNS client: failure classification (transient vs
// permanent), exponential retry backoff with deterministic jitter on a
// virtual clock, and a per-server circuit breaker shared across sweep
// workers. Covert-channel malware is built to survive network adversity;
// the measurement client has to match it, or a flaky nameserver silently
// costs coverage.

package dnsio

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/readmap"
	"repro/internal/simnet"
)

// Resilience errors.
var (
	// ErrCircuitOpen is returned without touching the network when a server's
	// breaker is open and it is not yet time for a half-open probe.
	ErrCircuitOpen = errors.New("dnsio: circuit breaker open")
	// ErrMalformed wraps a response that did not parse as a DNS message.
	ErrMalformed = errors.New("dnsio: response failed to parse")
	// ErrTLSHandshake wraps a failed DoT/DoH TLS handshake. The endpoint
	// answered the dial but refused (or botched) the crypto layer, so
	// retrying the same exchange cannot help — classified unreachable,
	// which makes the client fail fast instead of burning retries.
	ErrTLSHandshake = errors.New("dnsio: TLS handshake failed")
	// ErrHTTPStatus wraps a non-200 status from a DoH server. RFC 8484 §4.2.1
	// reserves the DNS-level outcome for 200 responses; anything else — a 502
	// from a proxy, a 429, a 400 — is a transport-level fault, transient by
	// default (the breaker still opens on a persistent streak).
	ErrHTTPStatus = errors.New("dnsio: DoH HTTP error status")
)

// FailClass buckets exchange failures for retry policy and coverage
// accounting.
type FailClass uint8

// Failure classes.
const (
	FailNone FailClass = iota
	// FailTimeout: the query or response was lost (or the server sat on it).
	FailTimeout
	// FailUnreachable: nothing listens there; retrying cannot help.
	FailUnreachable
	// FailSpoofed: a response arrived but failed ID/question/QR validation.
	FailSpoofed
	// FailMalformed: the response bytes did not parse as DNS.
	FailMalformed
	// FailBreakerOpen: the probe was suppressed by an open circuit breaker.
	FailBreakerOpen
	// FailOther: everything else (cancelled contexts, socket errors, ...).
	FailOther
)

// String names the class (used as the coverage-report histogram key).
func (fc FailClass) String() string {
	switch fc {
	case FailNone:
		return "none"
	case FailTimeout:
		return "timeout"
	case FailUnreachable:
		return "unreachable"
	case FailSpoofed:
		return "spoofed"
	case FailMalformed:
		return "malformed"
	case FailBreakerOpen:
		return "breaker-open"
	}
	return "other"
}

// Classify maps an error from Client.Exchange (or a Transport) onto its
// failure class.
func Classify(err error) FailClass {
	switch {
	case err == nil:
		return FailNone
	case errors.Is(err, ErrCircuitOpen):
		return FailBreakerOpen
	case errors.Is(err, simnet.ErrUnreachable), errors.Is(err, ErrTLSHandshake):
		return FailUnreachable
	case errors.Is(err, simnet.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	case errors.Is(err, ErrIDMismatch), errors.Is(err, ErrNotResponse), errors.Is(err, ErrQuestionMismatch):
		return FailSpoofed
	case errors.Is(err, ErrMalformed):
		return FailMalformed
	case errors.Is(err, ErrHTTPStatus):
		return FailOther
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return FailTimeout
	}
	// Real-socket dial rejections: nothing answers, so retrying is futile.
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH) {
		return FailUnreachable
	}
	return FailOther
}

// IsPermanent reports whether retrying the same exchange cannot succeed, so
// the client should fail fast instead of burning its retry budget.
func IsPermanent(err error) bool {
	if errors.Is(err, context.Canceled) {
		return true
	}
	switch Classify(err) {
	case FailUnreachable, FailBreakerOpen:
		return true
	}
	return false
}

// BackoffPolicy schedules the delay before each retry attempt: exponential
// doubling from Base, capped at Max, with deterministic ±50% jitter derived
// from (JitterSeed, server, attempt). The zero value disables backoff.
type BackoffPolicy struct {
	Base       time.Duration
	Max        time.Duration
	JitterSeed uint64
}

// DefaultBackoff is the client's standard retry schedule.
func DefaultBackoff() BackoffPolicy {
	return BackoffPolicy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
}

// Delay returns the pause before retry attempt n (1-based). Jitter is a pure
// hash, so two identically-seeded runs back off identically.
func (p BackoffPolicy) Delay(server netip.AddrPort, attempt int) time.Duration {
	if p.Base <= 0 || attempt <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := p.Base << shift
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	a := server.Addr().As16()
	h := p.JitterSeed*0x9E3779B97F4A7C15 + uint64(attempt)
	for _, b := range a[8:] {
		h = (h ^ uint64(b)) * 0xBF58476D1CE4E5B9
	}
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	frac := 0.5 + float64(h>>11)/float64(uint64(1)<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// virtualSleeper lets a transport substitute virtual time for real backoff
// sleeps; the sim fabric books the delay on its clock instead of blocking
// the worker.
type virtualSleeper interface {
	SleepVirtual(d time.Duration)
}

// SleepVirtual implements virtualSleeper: backoff on the fabric path advances
// the virtual clock, never a real timer.
func (t *SimTransport) SleepVirtual(d time.Duration) {
	t.Fabric.AdvanceVirtual(d)
}

// sleep pauses before a retry: virtually when the transport supports it,
// otherwise on a real timer bounded by the context.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if vs, ok := c.Transport.(virtualSleeper); ok {
		vs.SleepVirtual(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BreakerConfig tunes the per-server circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failed exchanges open the breaker.
	Threshold int
	// HalfOpenAfter is how many fast-failed calls an open breaker swallows
	// before letting one half-open probe through. Count-based rather than
	// time-based so the state machine is deterministic in-sim.
	HalfOpenAfter int
}

// DefaultBreakerConfig opens after 5 consecutive failures and probes every
// 8th suppressed call.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Threshold: 5, HalfOpenAfter: 8}
}

// breaker is one server's failure state machine: closed (normal), open
// (fail fast), half-open (one probe in flight decides).
type breaker struct {
	mu      sync.Mutex
	consec  int
	blocked int
	open    bool
}

// allow reports whether a call may proceed. On an open breaker it counts the
// suppressed call and periodically grants a half-open probe.
func (b *breaker) allow(cfg BreakerConfig) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	b.blocked++
	if b.blocked >= cfg.HalfOpenAfter {
		b.blocked = 0
		return true // half-open probe
	}
	return false
}

// report feeds one exchange outcome into the state machine.
func (b *breaker) report(s *BreakerSet, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.open = false
		b.consec = 0
		b.blocked = 0
		return
	}
	b.consec++
	if !b.open && b.consec >= s.cfg.Threshold {
		b.open = true
		b.blocked = 0
		s.trips.Add(1)
	}
}

// BreakerSet holds the per-server breakers. A server gets one at its first
// failure: a closed breaker that has seen no failure acts exactly as a
// missing one, so a server that always answers is never stored. Finding a
// server's breaker takes no lock once it is published, so sweep workers on
// different servers never contend.
type BreakerSet struct {
	cfg   BreakerConfig
	trips atomic.Int64
	// stored counts the breakers in m, advanced after each is stored: a
	// scratch that found none for a server trusts that until it moves.
	stored atomic.Int64
	m      readmap.Map[netip.Addr, *breaker]
}

// NewBreakerSet builds an empty set under the given config. Every open
// resolver's client has one, so an empty set holds no maps.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg}
}

// Trips returns how many times any breaker transitioned closed → open.
func (s *BreakerSet) Trips() int64 { return s.trips.Load() }

// Open reports whether a server's breaker is currently open. It stores
// nothing: a server with no breaker yet is closed.
func (s *BreakerSet) Open(addr netip.Addr) bool {
	b, ok := s.m.Load(addr)
	if !ok {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// SetSimFault installs one fault profile on both fabric endpoints of a DNS
// server — the UDP port and the paired reliable (TCP-semantics) port — so
// the chaos applies to truncation fallbacks too.
func SetSimFault(f *simnet.Fabric, addr netip.Addr, p simnet.FaultProfile) {
	f.SetFault(simnet.Endpoint{Addr: addr, Port: DNSPort}, p)
	f.SetFault(simnet.Endpoint{Addr: addr, Port: DNSPort + simTCPPortOffset}, p)
}
