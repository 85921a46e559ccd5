package dnsio

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dns"
)

// streamOf answers every transfer question with its records, one message
// each.
type streamOf [][]dns.RR

func (s streamOf) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	r := q.Reply()
	r.Header.RCode = dns.RCodeRefused
	return r
}

func (s streamOf) HandleStream(_ netip.Addr, q *dns.Message, send func(*dns.Message) error) (bool, error) {
	for _, recs := range s {
		r := q.Reply()
		r.Answers = recs
		if err := send(r); err != nil {
			return true, err
		}
	}
	return true, nil
}

// TestAXFRSOAOnlyBody: a transfer ends where its shape says, and the shape
// is read one way. The AXFR of a zone that holds only its SOA is the full
// body [SOA, SOA] (RFC 5936) and ends at its second record, as does an IXFR
// answered with that body; only an IXFR whose second SOA carries another
// serial is incremental and runs to its third current SOA. Each transfer has
// two seconds: a client that took [SOA, SOA] for the start of a delta would
// wait for a third SOA until then.
func TestAXFRSOAOnlyBody(t *testing.T) {
	soa := func(serial uint32) dns.RR {
		return dns.RR{Name: "z.test", Class: dns.ClassINET, TTL: 60, Data: &dns.SOA{
			MName: "ns.z.test", RName: "hostmaster.z.test", Serial: serial,
			Refresh: 60, Retry: 30, Expire: 600, Minimum: 60}}
	}
	a := dns.RR{Name: "a.z.test", Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.1")}}
	for _, tc := range []struct {
		name        string
		qtype       dns.Type
		stream      streamOf
		records     int
		incremental bool
	}{
		{"AXFR, SOA only", dns.TypeAXFR, streamOf{{soa(5), soa(5)}}, 2, false},
		{"AXFR, SOA only, one record a message", dns.TypeAXFR, streamOf{{soa(5)}, {soa(5)}}, 2, false},
		{"AXFR, second SOA of another serial", dns.TypeAXFR, streamOf{{soa(5), soa(4), a, soa(5)}}, 4, false},
		{"IXFR answered with a full SOA-only body", dns.TypeIXFR, streamOf{{soa(5), soa(5)}}, 2, false},
		{"IXFR, one delta step", dns.TypeIXFR, streamOf{{soa(5), soa(4), soa(5)}, {a, soa(5)}}, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(tc.stream)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			res, err := Transfer(ctx, srv.TCPAddr(), "z.test", tc.qtype, 4)
			if err != nil {
				t.Fatalf("transfer failed after %v: %v", time.Since(start), err)
			}
			if len(res.Records) != tc.records || res.Incremental() != tc.incremental {
				t.Errorf("%d records, incremental %v; want %d, %v: %v",
					len(res.Records), res.Incremental(), tc.records, tc.incremental, res.Records)
			}
		})
	}
}
