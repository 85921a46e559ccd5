package dnsio

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dns"
)

// markResponder answers a query for c<client>.q<seq>.test with a TXT record
// holding "<client>/<seq>", read out of the question. Queries with an even ID
// are answered in wire form into the buffer the server hands over, odd ones
// are declined to the message path, so both kinds of reply leave through the
// pooled exchange. Yielding between writing the reply and returning it widens
// the window in which a buffer shared between datagrams would show.
type markResponder struct {
	started, inFlight atomic.Int64
}

func (r *markResponder) reply(q *dns.Message) *dns.Message {
	resp := q.Reply()
	var client, seq int
	if _, err := fmt.Sscanf(string(q.Question().Name), "c%d.q%d.test", &client, &seq); err == nil {
		resp.Answers = append(resp.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 1,
			Data: dns.NewTXT(fmt.Sprintf("%d/%d", client, seq))})
	}
	return resp
}

func (r *markResponder) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	r.started.Add(1)
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	return r.reply(q)
}

func (r *markResponder) AppendWire(dst []byte, _ netip.Addr, raw []byte, _ string) ([]byte, bool) {
	if len(raw) < 2 || raw[1]&1 == 1 {
		return dst, false
	}
	r.started.Add(1)
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	q, err := dns.Unpack(raw)
	if err != nil {
		return dst, false
	}
	out, err := r.reply(q).AppendPack(dst)
	if err != nil {
		return dst, false
	}
	runtime.Gosched()
	return out, true
}

// TestUDPExchangesNeverCross: 8 closed-loop clients on one Server, 20,000
// datagrams in all — every reply carries its own query's ID, question and
// marker, so no pooled buffer was shared between two datagrams in flight —
// and Close, called under load, returns with no handler running and lets none
// start afterwards.
func TestUDPExchangesNeverCross(t *testing.T) {
	r := &markResponder{}
	srv := NewServer(r)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, per = 8, 2500
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.UDPAddr()))
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			buf := make([]byte, dns.MaxEDNS0Size)
			for seq := 0; seq < per; seq++ {
				q := dns.NewQuery(uint16(seq), dns.Name(fmt.Sprintf("c%d.q%d.test", c, seq)), dns.TypeTXT)
				raw, err := q.Pack()
				if err != nil {
					t.Error(err)
					return
				}
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write(raw); err != nil {
					t.Errorf("client %d query %d: %v", c, seq, err)
					return
				}
				n, err := conn.Read(buf)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, seq, err)
					return
				}
				resp, err := dns.Unpack(buf[:n])
				if err != nil {
					t.Errorf("client %d query %d: reply does not parse: %v", c, seq, err)
					return
				}
				want := fmt.Sprintf("%d/%d", c, seq)
				if resp.Header.ID != q.Header.ID || resp.Question() != q.Question() ||
					len(resp.Answers) != 1 || resp.Answers[0].Data.(*dns.TXT).Joined() != want {
					t.Errorf("client %d query %d got another datagram's reply: id %d, question %v, answers %v",
						c, seq, resp.Header.ID, resp.Question(), resp.Answers)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := r.started.Load(); got != clients*per {
		t.Errorf("%d handlers ran for %d datagrams", got, clients*per)
	}

	// Close under load: a sender that never reads keeps datagrams arriving.
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.UDPAddr()))
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		raw, _ := dns.NewQuery(2, "c0.q0.test", dns.TypeTXT).Pack()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = conn.Write(raw) // refused once the socket is closed
			}
		}
	}()
	for r.started.Load() < clients*per+100 {
		runtime.Gosched()
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if n := r.inFlight.Load(); n != 0 {
		t.Errorf("Close returned with %d handlers in flight", n)
	}
	after := r.started.Load()
	close(stop)
	<-flooded
	if got := r.started.Load(); got != after {
		t.Errorf("%d handlers started after Close returned", got-after)
	}
}

// fixedWire answers every datagram in wire form with the same octets,
// allocating nothing.
type fixedWire struct{ reply []byte }

func (fixedWire) HandleQuery(netip.Addr, *dns.Message) *dns.Message { return nil }

func (f fixedWire) AppendWire(dst []byte, _ netip.Addr, _ []byte, _ string) ([]byte, bool) {
	return append(dst, f.reply...), true
}

// TestUDPLoopAllocatesNothingPerDatagram: with a responder that renders into
// the buffer it is given, a datagram in and its reply out cost no allocation
// in steady state (buffers pooled, peer address by value, no closure per
// goroutine).
func TestUDPLoopAllocatesNothingPerDatagram(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	reply := bytes.Repeat([]byte{0xAB}, 100)
	srv := NewServer(fixedWire{reply: reply})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.UDPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	query, buf := make([]byte, 40), make([]byte, 512)
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(buf); err != nil || !bytes.Equal(buf[:n], reply) {
				t.Fatalf("reply %x, %v", buf[:n], err)
			}
		}
	}
	roundTrips(100) // fill the pool
	const n = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(n)
	runtime.ReadMemStats(&after)
	// A collection may empty the pool mid-run; anything per datagram shows
	// as n or more.
	if allocs := after.Mallocs - before.Mallocs; allocs > n/10 {
		t.Errorf("%d allocations over %d datagrams, want none per datagram", allocs, n)
	}
}
