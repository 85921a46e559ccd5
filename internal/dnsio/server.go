package dnsio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"repro/internal/dns"
)

// Server serves a Responder on real UDP and TCP sockets, and on any other
// stream listener handed to ServeStream (DoT's TLS listener). It exists so
// the reproduction's DNS stack can be driven by any standard client (dig, the
// cmd/dnsq tool, the examples) — the simulated fabric is an optimization, not
// a semantic shortcut. UDP is answered by GOMAXPROCS readers, each datagram
// inline by the reader that read it; a stream connection by its own goroutine.
type Server struct {
	responder Responder

	mu       sync.Mutex
	pc       *net.UDPConn
	lns      []net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	udpAddr  netip.AddrPort
	tcpAddr  netip.AddrPort
	closeErr error
}

// NewServer wraps a responder.
func NewServer(r Responder) *Server {
	return &Server{responder: r, conns: make(map[net.Conn]struct{})}
}

// Start binds UDP and TCP sockets on one port of the given address
// ("127.0.0.1:0" picks one free for both; see listenPair) and begins serving
// in background goroutines: the TCP acceptor and runtime.GOMAXPROCS(0) UDP
// readers, read once here. Every responder in the tree answers without
// waiting on I/O, so that many readers keep every core answering; one whose
// answer blocks holds up its reader alone.
func (s *Server) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pc != nil || s.closed {
		return errors.New("dnsio: server already started")
	}
	pc, ln, err := listenPair(addr)
	if err != nil {
		return err
	}
	s.pc = pc
	s.udpAddr = pc.LocalAddr().(*net.UDPAddr).AddrPort()
	s.tcpAddr = ln.Addr().(*net.TCPAddr).AddrPort()

	readers := runtime.GOMAXPROCS(0)
	s.wg.Add(readers)
	for range readers {
		go s.serveUDP()
	}
	s.acceptLocked(ln, ViaTCP)
	return nil
}

// pairAttempts bounds how many ports Start asks the kernel for on port 0.
const pairAttempts = 16

// listenTCP is net.Listen, a variable so a test can take the TCP half of
// the ports the kernel hands out.
var listenTCP = net.Listen

// listenPair binds UDP and TCP on addr's host and one port, where a client
// retrying a truncated UDP answer over TCP looks for the server. A named port
// whose TCP half is taken is an error; on port 0 the kernel picks the UDP
// port, and one taken for TCP is given back for another, up to pairAttempts
// times. On error nothing is left bound.
func listenPair(addr string) (*net.UDPConn, net.Listener, error) {
	_, port, _ := net.SplitHostPort(addr)
	for attempt := 1; ; attempt++ {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, err
		}
		udp := pc.LocalAddr().(*net.UDPAddr).AddrPort()
		ln, err := listenTCP("tcp", udp.String())
		if err == nil {
			return pc.(*net.UDPConn), ln, nil
		}
		pc.Close()
		if port != "0" || attempt == pairAttempts {
			return nil, nil, fmt.Errorf("dnsio: bind tcp beside udp %s: %w", udp, err)
		}
	}
}

// ServeStream serves two-octet-framed DNS on ln, labelling its queries via:
// each connection runs the loop Start's TCP listener runs, so a TLS listener
// with ViaDoT makes a DoT server with the TCP server's stream answers. The
// server owns ln from then on and Close closes it.
func (s *Server) ServeStream(ln net.Listener, via string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return errors.New("dnsio: server closed")
	}
	if ta, ok := ln.Addr().(*net.TCPAddr); ok && !s.tcpAddr.IsValid() {
		s.tcpAddr = ta.AddrPort()
	}
	s.acceptLocked(ln, via)
	return nil
}

// UDPAddr returns the bound UDP address.
func (s *Server) UDPAddr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.udpAddr
}

// TCPAddr returns the first bound stream address: the TCP socket Start
// bound, else the listener ServeStream was first given.
func (s *Server) TCPAddr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tcpAddr
}

// udpExchange is one UDP reader's buffers. A reader reads into in, renders
// into out and writes, so in steady state a responder that renders into the
// buffer it is given (WireResponder) answers from socket to socket without
// garbage, and the reader's stack, grown on its first answer, stays grown.
type udpExchange struct {
	in [dns.MaxEDNS0Size]byte
	// out holds any reply UDP can carry; a longer rendering is about to be
	// truncated and may grow out of it.
	out [dns.MaxEDNS0Size]byte
}

// serveUDP is one reader: it answers each datagram it reads before reading
// the next, until Close closes the socket. The responder sees the peer
// address as the socket reported it (IPv4-mapped on a dual-stack listener).
func (s *Server) serveUDP() {
	defer s.wg.Done()
	x := new(udpExchange)
	for {
		n, peer, err := s.pc.ReadFromUDPAddrPort(x.in[:])
		if err != nil {
			return // closed
		}
		if out := appendServe(x.out[:0], s.responder, peer.Addr(), x.in[:n], ViaUDP); len(out) > 0 {
			_, _ = s.pc.WriteToUDPAddrPort(out, peer)
		}
	}
}

// StreamResponder is the optional interface a Responder implements to answer
// one TCP or DoT query with a multi-message response stream — the shape of
// AXFR and IXFR zone transfers (RFC 5936 §2: a transfer is a sequence of
// DNS messages on one connection). HandleStream sends zero or more complete
// messages via send and returns handled=true when it owned the query;
// handled=false falls back to the ordinary single-message HandleQuery path.
// A non-nil error tears the connection down (the transfer cannot be
// completed mid-stream — a partial zone must never look complete to the
// client).
type StreamResponder interface {
	HandleStream(src netip.Addr, q *dns.Message, send func(*dns.Message) error) (handled bool, err error)
}

func (s *Server) acceptLocked(ln net.Listener, via string) {
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	go s.accept(ln, via)
}

func (s *Server) accept(ln net.Listener, via string) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn, via)
	}
}

// serveConn answers one stream connection's queries in order until the peer
// hangs up, a write fails, or Close ends the read it idles in. A query goes
// to HandleStream first when the responder streams, then to appendServe.
// Every reply, and every message of a stream, is rendered after two reserved
// octets of the connection's one reply buffer and leaves in one Write.
func (s *Server) serveConn(conn net.Conn, via string) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	src := netip.Addr{}
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		src = ta.AddrPort().Addr()
	}
	sr, streaming := s.responder.(StreamResponder)
	frame := make([]byte, 2, 2+dns.MaxUDPSize)
	send := func(m *dns.Message) error {
		out, err := m.AppendPack(frame[:2])
		if err != nil {
			return err
		}
		frame = out
		return writeFramed(conn, out)
	}
	for {
		raw, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if streaming {
			q := new(dns.Message)
			if err := q.UnpackFrom(raw); err == nil {
				handled, err := sr.HandleStream(src, q, send)
				if err != nil {
					return
				}
				if handled {
					continue
				}
			}
			// Malformed or unhandled: the single-message path below owns
			// FORMERR and ordinary answers alike.
		}
		out := appendServe(frame[:2], s.responder, src, raw, via)
		if len(out) <= 2 {
			return
		}
		frame = out
		if err := writeFramed(conn, out); err != nil {
			return
		}
	}
}

// Close shuts the sockets and waits for in-flight handlers. A stream
// connection idles in a read between queries, so Close ends that read: an
// idle client is dropped, while an answer already being written completes.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.pc != nil {
		s.closeErr = s.pc.Close()
	}
	for _, ln := range s.lns {
		if err := ln.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	}
	now := time.Now()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(now)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.closeErr
}
