package dnsio

import (
	"bytes"
	"fmt"
	"io"
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
// reader's exchange. Yielding between writing the reply and returning it
// widens the window in which a buffer shared between datagrams would show.
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
// marker, so no buffer was shared between two datagrams in flight —
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
// in steady state (each reader's buffers reused, peer address by value, no
// closure per goroutine).
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

// TestServerCloseEndsIdleStreams: Close returns promptly with a TCP client
// attached that never sends, and an answer already being computed when Close
// is called still reaches its client.
func TestServerCloseEndsIdleStreams(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		close(entered)
		<-release
		return q.Reply()
	}))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	idle, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	q, err := dns.NewQuery(7, "busy.test", dns.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(busy, q); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the responder")
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(50 * time.Millisecond)
	close(release)

	_ = busy.SetReadDeadline(time.Now().Add(2 * time.Second))
	raw, err := ReadFrame(busy)
	if err != nil {
		t.Fatalf("in-flight query lost its answer: %v", err)
	}
	if m, err := dns.Unpack(raw); err != nil || m.Header.ID != 7 {
		t.Fatalf("in-flight answer = %v, %v; want ID 7", m, err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked on an idle stream client")
	}
	_ = idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle client read after Close = %v, want EOF", err)
	}
}

// peakResponder answers every query with an empty reply after a short sleep,
// and records the most calls it ever had in flight at once.
type peakResponder struct{ inFlight, peak atomic.Int64 }

func (r *peakResponder) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message {
	n := r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	for p := r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
	}
	time.Sleep(20 * time.Microsecond) // widens the window in which calls overlap
	return q.Reply()
}

// TestUDPReadersBoundConcurrency: a flood from 8 clients, each keeping 4
// datagrams outstanding, never has more responder calls in flight than the
// server has readers (GOMAXPROCS at Start, 2 here), and leaves no goroutine
// behind: the count after the flood is the count just after Start. (It may
// read lower: a goroutine an earlier test ended can still be exiting at Start.)
func TestUDPReadersBoundConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := &peakResponder{}
	srv := NewServer(r)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := runtime.NumGoroutine()

	const clients, per, window = 8, 500, 4
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.UDPAddr()))
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			raw, err := dns.NewQuery(uint16(c), "flood.test", dns.TypeA).Pack()
			if err != nil {
				t.Error(err)
				return
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			sent, buf := 0, make([]byte, 512)
			for ; sent < window; sent++ {
				_, _ = conn.Write(raw)
			}
			for got := 0; got < per; got++ {
				if _, err := conn.Read(buf); err != nil {
					t.Errorf("client %d: reply %d of %d: %v", c, got, per, err)
					return
				}
				if sent < per {
					_, _ = conn.Write(raw)
					sent++
				}
			}
		}()
	}
	wg.Wait()
	if peak := r.peak.Load(); peak < 1 || peak > 2 {
		t.Errorf("%d responder calls in flight at once, want 1 to 2 (one per reader)", peak)
	}
	// The clients have returned; wait for their goroutines to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the flood, %d just after Start", n, base)
	}
}

// TestUDPBlockedAnswerHoldsOneReader: with GOMAXPROCS 2, a datagram whose
// answer blocks until released holds up one reader, and the other clients'
// datagrams are still answered; once it is released its client gets the
// answer and Close returns. A single reader answering inline fails this.
func TestUDPBlockedAnswerHoldsOneReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	entered, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(ResponderFunc(func(_ netip.Addr, q *dns.Message) *dns.Message {
		if q.Question().Name == "block.test" {
			close(entered)
			<-release
		}
		return q.Reply()
	}))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, should the test stop early

	exchange := func(conn *net.UDPConn, id uint16, name dns.Name) error {
		raw, err := dns.NewQuery(id, name, dns.TypeA).Pack()
		if err != nil {
			return err
		}
		if _, err := conn.Write(raw); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 512)
		n, err := conn.Read(buf)
		if err != nil {
			return err
		}
		if m, err := dns.Unpack(buf[:n]); err != nil || m.Header.ID != id {
			return fmt.Errorf("reply %v, %v; want ID %d", m, err, id)
		}
		return nil
	}
	dial := func() *net.UDPConn {
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.UDPAddr()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	blocked := dial()
	blockedDone := make(chan error, 1)
	go func() { blockedDone <- exchange(blocked, 1, "block.test") }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking query never reached the responder")
	}
	for c := range 4 {
		conn := dial()
		for seq := range 50 {
			if err := exchange(conn, uint16(seq), "free.test"); err != nil {
				t.Fatalf("client %d query %d with one answer blocked: %v", c, seq, err)
			}
		}
	}
	unblock()
	if err := <-blockedDone; err != nil {
		t.Fatalf("released answer: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the release")
	}
}

// writeLog records the size of every Write on the connections that share it.
type writeLog struct {
	mu    sync.Mutex
	sizes []int
}

type countingConn struct {
	net.Conn
	log *writeLog
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.sizes = append(c.log.sizes, len(p))
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	log writeLog
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, log: &l.log}, nil
}

// threeFrames streams an AXFR as three messages of growing size, the last
// past 512 octets, and leaves every other query to HandleQuery.
type threeFrames struct{}

func (threeFrames) HandleQuery(_ netip.Addr, q *dns.Message) *dns.Message { return q.Reply() }

func (threeFrames) HandleStream(_ netip.Addr, q *dns.Message, send func(*dns.Message) error) (bool, error) {
	if q.Question().Type != dns.TypeAXFR {
		return false, nil
	}
	for i := range 3 {
		m := q.Reply()
		m.Answers = append(m.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 1,
			Data: dns.NewTXT(string(bytes.Repeat([]byte{'x'}, 1+i*300)))})
		if err := send(m); err != nil {
			return true, err
		}
	}
	return true, nil
}

// TestStreamFrameIsOneWrite: under ServeStream every reply, and each message
// of a transfer stream, leaves in exactly one Write of its length plus the
// two-octet prefix, and WriteFrame on the client side writes each query once.
func TestStreamFrameIsOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := &countingListener{Listener: ln}
	srv := NewServer(threeFrames{})
	if err := srv.ServeStream(served, ViaTCP); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	client := &countingConn{Conn: raw, log: &writeLog{}}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))

	var wantServed, wantClient []int
	for i, ask := range []struct {
		qtype   dns.Type
		replies int
	}{{dns.TypeA, 1}, {dns.TypeAXFR, 3}, {dns.TypeTXT, 1}, {dns.TypeAXFR, 3}} {
		q, err := dns.NewQuery(uint16(i), "zone.test", ask.qtype).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(client, q); err != nil {
			t.Fatal(err)
		}
		wantClient = append(wantClient, len(q)+2)
		for range ask.replies {
			msg, err := ReadFrame(client)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			wantServed = append(wantServed, len(msg)+2)
		}
	}
	served.log.mu.Lock()
	defer served.log.mu.Unlock()
	if fmt.Sprint(served.log.sizes) != fmt.Sprint(wantServed) {
		t.Errorf("server writes %v, want one per frame: %v", served.log.sizes, wantServed)
	}
	if fmt.Sprint(client.log.sizes) != fmt.Sprint(wantClient) {
		t.Errorf("WriteFrame writes %v, want one per frame: %v", client.log.sizes, wantClient)
	}
}

// TestStartNamedPortTCPTaken: a named port whose TCP half another socket
// holds is an error, and the UDP half is given back: nothing stays bound.
func TestStartNamedPortTCPTaken(t *testing.T) {
	// A TCP port whose UDP half is free, so only the TCP half is taken.
	var held net.Listener
	for tries := 0; held == nil; tries++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil || tries == 16 {
			t.Fatalf("no TCP port with its UDP half free: %v", err)
		}
		if pc, err := net.ListenPacket("udp", ln.Addr().String()); err == nil {
			pc.Close()
			held = ln
		} else {
			ln.Close()
		}
	}
	defer held.Close()
	addr := held.Addr().String()
	s := NewServer(&markResponder{})
	if err := s.Start(addr); err == nil {
		s.Close()
		t.Fatalf("Start(%s) with its TCP port taken succeeded on udp %s, tcp %s", addr, s.UDPAddr(), s.TCPAddr())
	}
	if s.UDPAddr().IsValid() || s.TCPAddr().IsValid() {
		t.Errorf("the failed Start left udp %s, tcp %s", s.UDPAddr(), s.TCPAddr())
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("the failed Start kept udp %s bound: %v", addr, err)
	}
	pc.Close()
}

// TestStartEphemeralPairRetries: on port 0, a UDP port whose TCP half is
// taken is given back for a fresh one, so UDP and TCP always share a port;
// after pairAttempts taken ports Start gives up with nothing bound.
func TestStartEphemeralPairRetries(t *testing.T) {
	defer func() { listenTCP = net.Listen }()
	for _, taken := range []int{3, pairAttempts} {
		var calls int
		var udpPorts []uint16
		listenTCP = func(network, addr string) (net.Listener, error) {
			calls++
			if calls <= taken {
				ap := netip.MustParseAddrPort(addr)
				udpPorts = append(udpPorts, ap.Port())
				return nil, fmt.Errorf("listen %s %s: address already in use", network, addr)
			}
			return net.Listen(network, addr)
		}
		s := NewServer(&markResponder{})
		err := s.Start("127.0.0.1:0")
		switch {
		case taken < pairAttempts && err != nil:
			t.Fatalf("%d ports taken: %v", taken, err)
		case taken < pairAttempts:
			if u, tc := s.UDPAddr(), s.TCPAddr(); u.Port() != tc.Port() || calls != taken+1 {
				t.Errorf("%d ports taken: udp %s, tcp %s after %d TCP binds", taken, u, tc, calls)
			}
			s.Close()
		case err == nil:
			s.Close()
			t.Fatalf("every port taken, yet Start bound udp %s, tcp %s", s.UDPAddr(), s.TCPAddr())
		case calls != pairAttempts || s.UDPAddr().IsValid():
			t.Errorf("every port taken: %d TCP binds, udp %s left", calls, s.UDPAddr())
		}
		for _, p := range udpPorts {
			pc, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				t.Errorf("udp port %d, whose TCP half was taken, stayed bound: %v", p, err)
				continue
			}
			pc.Close()
		}
	}
}
