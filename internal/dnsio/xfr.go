package dnsio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"repro/internal/dns"
)

// Zone-transfer client. A transfer is the one DNS exchange that is not
// request/response: the server answers a single AXFR or IXFR question with a
// stream of messages on the same TCP connection (RFC 5936, RFC 1995). This
// client owns the stream discipline — when the stream ends, which SOA is the
// terminator, and how an incremental response differs from a full one — and
// hands the caller the flattened record sequence in arrival order, which is
// exactly the order the delta semantics of IXFR require.

// Transfer limits: a malicious or broken server must not be able to hold the
// client forever or balloon its memory.
const (
	maxXfrMessages = 1 << 16
	maxXfrRecords  = 1 << 22
)

// ErrXfrProtocol reports a malformed transfer stream.
var ErrXfrProtocol = errors.New("dnsio: malformed zone transfer stream")

// XfrResult is one completed transfer.
type XfrResult struct {
	// Type is the question's type, AXFR or IXFR.
	Type dns.Type
	// RCode is the response code of the first message. Records are only
	// populated when it is NOERROR (a REFUSED transfer carries no data).
	RCode dns.RCode
	// Records is every answer record across the stream, in arrival order:
	// leading SOA, payload, trailing SOA. For an up-to-date IXFR response it
	// is the single current SOA.
	Records []dns.RR
	// Messages counts the stream's DNS messages.
	Messages int
}

// Serial returns the transfer's zone serial (from the leading SOA).
func (r *XfrResult) Serial() (uint32, bool) {
	if len(r.Records) == 0 {
		return 0, false
	}
	soa, ok := r.Records[0].Data.(*dns.SOA)
	if !ok {
		return 0, false
	}
	return soa.Serial, true
}

// Incremental is the one rule for a transfer's shape, read by Transfer to
// end the stream and by a mirror to apply it. An AXFR is always a full body
// (RFC 5936), even [SOA, SOA] for a zone holding only its SOA. Any other
// answer may be either (RFC 1995 §4): it is incremental exactly when its
// second record is an SOA whose serial differs from the opening one — the
// client's old serial opening the first delta step. An up-to-date
// single-SOA answer is not incremental.
func (r *XfrResult) Incremental() bool {
	if r.Type == dns.TypeAXFR || len(r.Records) < 2 {
		return false
	}
	first, _ := r.Records[0].Data.(*dns.SOA)
	second, ok := r.Records[1].Data.(*dns.SOA)
	return ok && first != nil && second.Serial != first.Serial
}

// Transfer runs one zone transfer over TCP. qtype selects AXFR or IXFR; for
// IXFR, serial is the client's current zone serial (sent in the request's
// authority SOA, per RFC 1995 §3). The stream terminates when the opening
// SOA's serial re-appears the number of times its shape (Incremental, fixed
// by the second record) calls for: twice for a full body, three times for an
// incremental one (opening SOA, final delta block's new-SOA marker, trailing
// SOA), once for an up-to-date reply.
func Transfer(ctx context.Context, server netip.AddrPort, zone dns.Name, qtype dns.Type, serial uint32) (*XfrResult, error) {
	if qtype != dns.TypeAXFR && qtype != dns.TypeIXFR {
		return nil, fmt.Errorf("dnsio: Transfer qtype must be AXFR or IXFR, got %s", qtype)
	}
	q := &dns.Message{
		Header:    dns.Header{ID: uint16(time.Now().UnixNano()) | 1},
		Questions: []dns.Question{{Name: zone, Type: qtype, Class: dns.ClassINET}},
	}
	if qtype == dns.TypeIXFR {
		q.Authority = append(q.Authority, dns.RR{
			Name: zone, Class: dns.ClassINET,
			Data: &dns.SOA{MName: "ns." + zone, RName: "hostmaster." + zone, Serial: serial},
		})
	}
	packed, err := q.Pack()
	if err != nil {
		return nil, fmt.Errorf("dnsio: pack transfer query: %w", err)
	}

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := WriteFrame(conn, packed); err != nil {
		return nil, err
	}

	res := &XfrResult{Type: qtype}
	var (
		openSerial uint32 // serial of the leading SOA
		termTarget = -1   // occurrences of openSerial-SOAs that end the stream
		termSeen   int
	)
	for {
		raw, err := ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("dnsio: transfer read: %w", err)
		}
		m, err := dns.Unpack(raw)
		if err != nil {
			return nil, fmt.Errorf("dnsio: transfer unpack: %w", err)
		}
		if m.Header.ID != q.Header.ID {
			return nil, ErrIDMismatch
		}
		res.Messages++
		if res.Messages == 1 {
			res.RCode = m.Header.RCode
			if m.Header.RCode != dns.RCodeSuccess {
				return res, nil
			}
		} else if m.Header.RCode != dns.RCodeSuccess {
			return nil, fmt.Errorf("%w: rcode %s mid-stream", ErrXfrProtocol, m.Header.RCode)
		}
		for _, rr := range m.Answers {
			if len(res.Records) == 0 {
				soa, ok := rr.Data.(*dns.SOA)
				if !ok {
					return nil, fmt.Errorf("%w: stream does not open with SOA", ErrXfrProtocol)
				}
				openSerial = soa.Serial
				termSeen = 1
			} else if soa, ok := rr.Data.(*dns.SOA); ok && soa.Serial == openSerial {
				termSeen++
			}
			res.Records = append(res.Records, rr)
			if len(res.Records) == 2 {
				// An incremental body's last delta marker re-uses the
				// current serial once more.
				termTarget = 2
				if res.Incremental() {
					termTarget = 3
				}
			}
			if len(res.Records) > maxXfrRecords {
				return nil, fmt.Errorf("%w: record cap exceeded", ErrXfrProtocol)
			}
			if termTarget > 0 && termSeen >= termTarget {
				return res, nil
			}
		}
		// A first message carrying exactly one SOA and nothing since is the
		// up-to-date IXFR reply.
		if res.Messages == 1 && len(res.Records) == 1 && termTarget < 0 && qtype == dns.TypeIXFR {
			return res, nil
		}
		if res.Messages > maxXfrMessages {
			return nil, fmt.Errorf("%w: message cap exceeded", ErrXfrProtocol)
		}
	}
}

// Notify sends one RFC 1996 NOTIFY for zone to server over UDP: question
// (zone, SOA), answer SOA carrying the new serial. NOTIFY is best-effort by
// design — the secondary's scheduled SOA refresh is the reliability backstop
// — so the ack is awaited only until ctx's deadline and a missing one is not
// an error; only a failure to send reports.
func Notify(ctx context.Context, server netip.AddrPort, zone dns.Name, serial uint32) error {
	m := &dns.Message{
		Header: dns.Header{
			ID:            uint16(time.Now().UnixNano()) | 1,
			OpCode:        dns.OpNotify,
			Authoritative: true,
		},
		Questions: []dns.Question{{Name: zone, Type: dns.TypeSOA, Class: dns.ClassINET}},
		Answers: []dns.RR{{
			Name: zone, Class: dns.ClassINET,
			Data: &dns.SOA{MName: "ns." + zone, RName: "hostmaster." + zone, Serial: serial},
		}},
	}
	packed, err := m.Pack()
	if err != nil {
		return fmt.Errorf("dnsio: pack notify: %w", err)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", server.String())
	if err != nil {
		return err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if _, err := conn.Write(packed); err != nil {
		return err
	}
	buf := make([]byte, dns.MaxUDPSize)
	_, _ = conn.Read(buf) // ack or deadline; either is fine
	return nil
}
