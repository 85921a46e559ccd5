package simnet

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"
	"time"
)

// FaultProfile describes the misbehaviour of one endpoint, layered on top of
// the fabric-wide knob (SetLossRate). Real-world sweeps meet
// nameservers that are slow, lossy, flapping, or actively hostile; a profile
// lets a chaos run model each of those per server.
//
// Every probabilistic draw is a pure hash of (fabric seed, endpoint,
// per-endpoint exchange sequence number), so a chaos run is reproducible: as
// long as the order of exchanges *to one endpoint* is stable — the collector
// sweeps each server from a single worker — the same faults fire at the same
// points no matter how goroutines interleave across endpoints.
type FaultProfile struct {
	// LossRate is the per-endpoint probability in [0,1) that a datagram
	// exchange is dropped, independent of the fabric-wide loss rate.
	LossRate float64
	// ExtraRTT is added to the virtual clock on every exchange, modelling a
	// slow or distant server.
	ExtraRTT time.Duration
	// ServFail short-circuits the handler and answers every DNS query with
	// SERVFAIL (the query echoed with QR set and RCODE=2).
	ServFail bool
	// GarbageRate is the probability that the response payload is replaced
	// with deterministic pseudo-random bytes.
	GarbageRate float64
	// TruncateResp cuts datagram responses to at most this many bytes
	// (mid-message, unlike the DNS TC mechanism), when > 0.
	TruncateResp int
	// WrongIDRate is the probability that the response's leading two bytes —
	// the DNS message ID — are corrupted, modelling an off-path spoofer.
	WrongIDRate float64
	// FlapPeriod/FlapDown model a flapping server on a deterministic duty
	// cycle: of every FlapPeriod exchanges, the first FlapDown are dropped.
	FlapPeriod int
	FlapDown   int
	// Blackhole silently drops every exchange (the client observes timeouts).
	Blackhole bool
}

// faultState pairs a profile with the per-endpoint exchange sequence counter
// that drives its deterministic draws.
type faultState struct {
	p   FaultProfile
	seq atomic.Int64
}

// SetFault installs (or replaces) a fault profile for one endpoint. The
// profile's sequence counter restarts at zero.
func (f *Fabric) SetFault(ep Endpoint, p FaultProfile) {
	hst := f.hostOf(ep.Addr)
	hst.mu.Lock()
	hst.ensureService(ep.Port).fault = &faultState{p: p}
	hst.mu.Unlock()
}

// ClearFaults removes every installed fault profile.
func (f *Fabric) ClearFaults() {
	f.eachHost(func(h *host) {
		for i := range h.services {
			h.services[i].fault = nil
		}
	})
}

// FaultFor returns the installed profile for an endpoint, if any.
func (f *Fabric) FaultFor(ep Endpoint) (p FaultProfile, ok bool) {
	f.withService(ep, func(svc *service) {
		if svc.fault != nil {
			p, ok = svc.fault.p, true
		}
	})
	return p, ok
}

// AdvanceVirtual books extra time on the fabric's virtual clock — the client
// layer uses it to account retry backoff without real sleeps in-sim.
func (f *Fabric) AdvanceVirtual(d time.Duration) {
	if d > 0 {
		f.advanced.Add(int64(d))
	}
}

// FaultDrops returns how many exchanges per-endpoint faults swallowed
// (blackhole, flap window, per-endpoint loss).
func (f *Fabric) FaultDrops() int64 {
	return f.sum(func(h *host) int64 { return h.faultDrops })
}

// SpoofsInjected returns how many responses had their DNS ID corrupted.
func (f *Fabric) SpoofsInjected() int64 {
	return f.sum(func(h *host) int64 { return h.spoofs })
}

// GarbageInjected returns how many responses were replaced with garbage.
func (f *Fabric) GarbageInjected() int64 {
	return f.sum(func(h *host) int64 { return h.garbage })
}

// Salts separating the independent draw streams of one profile.
const (
	saltLoss uint64 = iota + 1
	saltWrongID
	saltGarbage
	saltGarbageBytes
	// saltFabricLoss is the fabric-wide loss rate's stream, drawn per address
	// (port zero) and per exchange sent to it.
	saltFabricLoss
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// chaosHash derives the deterministic draw for (seed, endpoint, seq, salt).
func (f *Fabric) chaosHash(ep Endpoint, seq uint64, salt uint64) uint64 {
	a := ep.Addr.As16()
	x := uint64(f.seed)*0x9E3779B97F4A7C15 + salt
	x = mix64(x ^ binary.LittleEndian.Uint64(a[0:8]))
	x = mix64(x ^ binary.LittleEndian.Uint64(a[8:16]))
	x = mix64(x ^ uint64(ep.Port)<<32 ^ seq)
	return x
}

// chaosFloat maps a hash onto [0,1).
func chaosFloat(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// servFailEcho appends a SERVFAIL answer built from the raw query to dst: the
// query bytes echoed with QR set and RCODE=2. The fabric is byte-oriented, but
// the traffic it carries in this reproduction is DNS, so the 12-octet header
// layout is fair game for fault injection.
func servFailEcho(dst, req []byte) []byte {
	if len(req) < 12 {
		return nil
	}
	out := append(dst, req...)
	out[2] |= 0x80              // QR: this is a response
	out[3] = out[3]&0xF0 | 0x02 // RCODE: SERVFAIL
	return out
}

// garbageLen is the size of an injected garbage payload.
const garbageLen = 40

// garbageBytes appends a deterministic pseudo-random payload, derived from one
// hash, to dst.
func garbageBytes(dst []byte, h uint64) []byte {
	for i := 0; i < garbageLen; i += 8 {
		h = mix64(h)
		dst = binary.LittleEndian.AppendUint64(dst, h)
	}
	return dst
}

// startsAt reports whether resp occupies buf's storage from its first byte,
// i.e. the handler appended its response to the buffer it was handed.
func startsAt(resp, buf []byte) bool {
	return cap(buf) > 0 && len(resp) > 0 && &resp[0] == &buf[:1][0]
}

// applyFault runs one exchange through an endpoint's fault profile. The
// handler is skipped when the profile swallows the request or answers SERVFAIL
// itself. lossy marks datagram semantics — per-endpoint loss and byte
// truncation only apply there, never on the reliable path. buf is the empty
// slice the handler is handed; injected bytes land there too. What the
// profile did is booked on hst, the endpoint's host.
func (f *Fabric) applyFault(hst *host, st *faultState, ep Endpoint, h Handler, buf []byte, src netip.Addr, req []byte, lossy bool) ([]byte, error) {
	seq := uint64(st.seq.Add(1) - 1)
	p := &st.p
	if p.ExtraRTT > 0 {
		hst.mu.Lock()
		hst.virtual += p.ExtraRTT
		hst.mu.Unlock()
	}
	if p.Blackhole ||
		p.FlapPeriod > 0 && int(seq%uint64(p.FlapPeriod)) < p.FlapDown ||
		lossy && p.LossRate > 0 && chaosFloat(f.chaosHash(ep, seq, saltLoss)) < p.LossRate {
		hst.book(&hst.faultDrops)
		return nil, ErrTimeout
	}
	var resp []byte
	if p.ServFail {
		resp = servFailEcho(buf, req)
	} else {
		resp = h.ServePacket(buf, src, req)
	}
	if resp == nil {
		return nil, ErrTimeout
	}
	if p.WrongIDRate > 0 && len(resp) >= 2 && chaosFloat(f.chaosHash(ep, seq, saltWrongID)) < p.WrongIDRate {
		// A handler may return bytes it keeps: only a response it appended to
		// the exchange's own buffer is corrupted where it lies.
		if !startsAt(resp, buf) {
			resp = append(buf, resp...)
		}
		resp[0] ^= 0xA5
		resp[1] ^= 0x5A
		hst.book(&hst.spoofs)
	}
	if p.GarbageRate > 0 && chaosFloat(f.chaosHash(ep, seq, saltGarbage)) < p.GarbageRate {
		resp = garbageBytes(buf, f.chaosHash(ep, seq, saltGarbageBytes))
		hst.book(&hst.garbage)
	}
	if lossy && p.TruncateResp > 0 && len(resp) > p.TruncateResp {
		resp = resp[:p.TruncateResp]
	}
	return resp, nil
}
