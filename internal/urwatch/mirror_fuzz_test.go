package urwatch

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// transferMessage packs recs as the answer section of one message: the form
// FuzzMirrorApply reads a transfer result from.
func transferMessage(tb testing.TB, rcode dns.RCode, recs ...dns.RR) []byte {
	tb.Helper()
	m := &dns.Message{Header: dns.Header{Response: true, RCode: rcode}, Answers: recs}
	wire, err := m.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// FuzzMirrorApply feeds a mirror two transfer results, each decoded from a
// message's answer section and response code: the first to give it a zone
// (or not), the second to apply over it. The contract: no input panics; a
// rejected Apply leaves the serial, whether it holds a zone, and the zone text — SOA and body
// — as they were; and an accepted full body's serial is that of the SOA
// framing it.
func FuzzMirrorApply(f *testing.F) {
	soa := func(serial uint32) dns.RR {
		return dns.RR{Name: "urbl.test", Class: dns.ClassINET, TTL: 60, Data: &dns.SOA{
			MName: "ns.urbl.test", RName: "hostmaster.urbl.test", Serial: serial,
			Refresh: 60, Retry: 30, Expire: 600, Minimum: 60}}
	}
	a := func(owner dns.Name, last byte) dns.RR {
		return dns.RR{Name: owner, Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: netip.AddrFrom4([4]byte{127, 0, 0, last})}}
	}
	x, y := a("x.urbl.test", 2), a("y.urbl.test", 3)
	full := transferMessage(f, dns.RCodeSuccess, soa(1), x, soa(1))
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(2), soa(1), x, soa(2), y, soa(2)))      // a delta
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(3), soa(1), y, soa(3), soa(3)))         // deletes an absent record
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(3), soa(1), soa(2), soa(2), y, soa(3))) // fails in its second step
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(3), soa(1), soa(2), soa(3)))            // ends short of its target
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(1)))                                    // up to date
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(2), x, y, soa(2)))                      // a new full body
	f.Add(full, transferMessage(f, dns.RCodeSuccess, soa(2), x, soa(3)))                         // misframed
	f.Add(full, transferMessage(f, dns.RCodeRefused))
	f.Add([]byte{}, full)
	f.Fuzz(func(t *testing.T, zone, transfer []byte) {
		m := new(Mirror)
		for _, raw := range [][]byte{zone, transfer} {
			msg, err := dns.Unpack(raw)
			if err != nil {
				continue
			}
			res := &dnsio.XfrResult{RCode: msg.Header.RCode, Records: msg.Answers}
			serial, hasZone, text := m.Serial(), m.hasZone, zoneText(m)
			if err := m.Apply(res); err != nil {
				if m.Serial() != serial || m.hasZone != hasZone || zoneText(m) != text {
					t.Fatalf("a rejected transfer (%v) changed the mirror: serial %d → %d, zone %v → %v\n%s\n→\n%s",
						err, serial, m.Serial(), hasZone, m.hasZone, text, zoneText(m))
				}
				continue
			}
			recs := res.Records
			if len(recs) < 2 || len(recs) >= 3 && rrSOA(recs[1]) != nil {
				continue // up to date, or a delta
			}
			if head := rrSOA(recs[0]); head == nil || m.Serial() != head.Serial || !m.hasZone {
				t.Fatalf("an accepted full body framed by %v left the mirror at serial %d (zone %v)", recs[0], m.Serial(), m.hasZone)
			}
		}
	})
}
