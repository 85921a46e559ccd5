package urwatch

import (
	"fmt"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// Mirror is a model secondary's view of the feed zone, fed by transfer
// results; the zero Mirror is an empty secondary. The transfer tests use it
// to prove the IXFR contract: a mirror that AXFRs once and then applies
// incremental deltas must reconstruct the same zone a fresh AXFR of the
// final generation produces.
type Mirror struct {
	serial  uint32
	hasZone bool
	soaLine string
	body    map[string]int
}

// Serial returns the mirror's current zone serial.
func (m *Mirror) Serial() uint32 { return m.serial }

func rrSOA(rr dns.RR) *dns.SOA {
	soa, _ := rr.Data.(*dns.SOA)
	return soa
}

// Apply folds one transfer result into the mirror: a full body replaces the
// zone, an incremental body applies delta steps, a single-SOA body is the
// up-to-date no-op. A non-applicable result (REFUSED, or a delta that does
// not chain from the mirror's serial) returns an error and leaves the mirror
// unchanged; the caller's recovery is a fresh AXFR.
func (m *Mirror) Apply(res *dnsio.XfrResult) error {
	recs, rcode := res.Records, res.RCode
	if rcode != dns.RCodeSuccess {
		return fmt.Errorf("urwatch: transfer refused (rcode %s)", rcode)
	}
	if len(recs) == 0 {
		return fmt.Errorf("urwatch: empty transfer result")
	}
	if len(recs) == 1 {
		soa := rrSOA(recs[0])
		if soa == nil {
			return fmt.Errorf("urwatch: single-record transfer is not a SOA")
		}
		if m.hasZone && soa.Serial != m.serial {
			return fmt.Errorf("urwatch: up-to-date reply serial %d != mirror serial %d", soa.Serial, m.serial)
		}
		return nil
	}
	if res.Incremental() {
		return m.applyIncremental(recs)
	}
	return m.applyFull(recs)
}

// applyFull replaces the zone with an AXFR-style body.
func (m *Mirror) applyFull(recs []dns.RR) error {
	first, last := rrSOA(recs[0]), rrSOA(recs[len(recs)-1])
	if first == nil || last == nil || first.Serial != last.Serial {
		return fmt.Errorf("urwatch: full transfer not SOA-framed")
	}
	body := make(map[string]int, len(recs))
	for _, rr := range recs[1 : len(recs)-1] {
		body[rr.String()]++
	}
	m.serial = first.Serial
	m.soaLine = recs[0].String()
	m.body = body
	m.hasZone = true
	return nil
}

// applyIncremental applies an RFC 1995 delta body: SOA(target), then per
// step SOA(old) + deletions + SOA(new) + additions, then SOA(target).
func (m *Mirror) applyIncremental(recs []dns.RR) error {
	if !m.hasZone {
		return fmt.Errorf("urwatch: incremental transfer into empty mirror")
	}
	target := rrSOA(recs[0])
	if target == nil {
		return fmt.Errorf("urwatch: incremental body does not open with SOA")
	}
	// Stage the changes so a mid-body error leaves the mirror untouched.
	body := make(map[string]int, len(m.body))
	for k, v := range m.body {
		body[k] = v
	}
	cur := m.serial
	i := 1
	for i < len(recs) {
		soa := rrSOA(recs[i])
		if soa == nil {
			return fmt.Errorf("urwatch: delta step at record %d does not open with SOA", i)
		}
		if i == len(recs)-1 {
			if soa.Serial != target.Serial {
				return fmt.Errorf("urwatch: trailing SOA serial %d != target %d", soa.Serial, target.Serial)
			}
			break
		}
		if soa.Serial != cur {
			return fmt.Errorf("urwatch: delta chain breaks: step opens at serial %d, mirror at %d", soa.Serial, cur)
		}
		i++
		for i < len(recs) && rrSOA(recs[i]) == nil {
			line := recs[i].String()
			if body[line] == 0 {
				return fmt.Errorf("urwatch: delta deletes absent record %q", line)
			}
			body[line]--
			if body[line] == 0 {
				delete(body, line)
			}
			i++
		}
		if i >= len(recs) {
			return fmt.Errorf("urwatch: delta step truncated before new-SOA marker")
		}
		cur = rrSOA(recs[i]).Serial
		i++
		for i < len(recs) && rrSOA(recs[i]) == nil {
			body[recs[i].String()]++
			i++
		}
	}
	if cur != target.Serial {
		return fmt.Errorf("urwatch: delta chain ends at serial %d, target %d", cur, target.Serial)
	}
	m.serial = cur
	m.soaLine = recs[0].String()
	m.body = body
	return nil
}
