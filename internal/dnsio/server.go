package dnsio

import (
	"errors"
	"net"
	"net/netip"
	"sync"

	"repro/internal/dns"
)

// Server serves a Responder on real UDP and TCP sockets. It exists so the
// reproduction's DNS stack can be driven by any standard client (dig, the
// cmd/dnsq tool, the examples) — the simulated fabric is an optimization, not
// a semantic shortcut.
type Server struct {
	responder Responder

	mu       sync.Mutex
	pc       *net.UDPConn
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup
	udpPool  sync.Pool // of *udpExchange
	udpAddr  netip.AddrPort
	tcpAddr  netip.AddrPort
	started  bool
	closeErr error
}

// NewServer wraps a responder.
func NewServer(r Responder) *Server {
	return &Server{responder: r}
}

// Start binds UDP and TCP sockets on the given address ("127.0.0.1:0" picks
// ephemeral ports) and begins serving in background goroutines.
func (s *Server) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("dnsio: server already started")
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return err
	}
	udpAP := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	// Bind TCP on the same host and port as UDP when possible.
	ln, err := net.Listen("tcp", udpAP.String())
	if err != nil {
		// Ephemeral collision: fall back to any port on the same host.
		ln, err = net.Listen("tcp", net.JoinHostPort(udpAP.Addr().String(), "0"))
		if err != nil {
			pc.Close()
			return err
		}
	}
	s.pc, s.ln = pc.(*net.UDPConn), ln
	s.udpAddr = udpAP
	s.tcpAddr = ln.Addr().(*net.TCPAddr).AddrPort()
	s.started = true

	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return nil
}

// UDPAddr returns the bound UDP address.
func (s *Server) UDPAddr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.udpAddr
}

// TCPAddr returns the bound TCP address.
func (s *Server) TCPAddr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tcpAddr
}

// udpExchange is one datagram's buffers and peer. The server pools them and
// hands one from the reader to a goroutine per datagram, so in steady state
// the UDP loop allocates nothing: a responder that renders into the buffer it
// is given (WireResponder) answers from socket to socket without garbage.
type udpExchange struct {
	s    *Server
	in   [dns.MaxEDNS0Size]byte
	n    int
	peer netip.AddrPort
	// out holds any reply UDP can carry; a longer rendering is about to be
	// truncated and may grow out of it.
	out [dns.MaxEDNS0Size]byte
	// run is serve bound to this value once, when it is made: a go statement
	// on a func value without arguments allocates no closure.
	run func()
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	for {
		x, _ := s.udpPool.Get().(*udpExchange)
		if x == nil {
			x = &udpExchange{s: s}
			x.run = x.serve
		}
		var err error
		if x.n, x.peer, err = s.pc.ReadFromUDPAddrPort(x.in[:]); err != nil {
			return // closed
		}
		s.wg.Add(1)
		go x.run()
	}
}

// serve answers the datagram x holds and returns x to the pool. The responder
// sees the peer address as the socket reported it (IPv4-mapped on a
// dual-stack listener).
func (x *udpExchange) serve() {
	s := x.s
	defer s.wg.Done()
	if out := appendServe(x.out[:0], s.responder, x.peer.Addr(), x.in[:x.n], ViaUDP); len(out) > 0 {
		_, _ = s.pc.WriteToUDPAddrPort(out, x.peer)
	}
	s.udpPool.Put(x)
}

// StreamResponder is the optional interface a Responder implements to answer
// one TCP query with a multi-message response stream — the shape of AXFR and
// IXFR zone transfers (RFC 5936 §2: a transfer is a sequence of DNS messages
// on one connection). HandleStream sends zero or more complete messages via
// send and returns handled=true when it owned the query; handled=false falls
// back to the ordinary single-message HandleQuery path. A non-nil error
// tears the connection down (the transfer cannot be completed mid-stream —
// a partial zone must never look complete to the client).
type StreamResponder interface {
	HandleStream(src netip.Addr, q *dns.Message, send func(*dns.Message) error) (handled bool, err error)
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			src := netip.Addr{}
			if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
				src = ta.AddrPort().Addr()
			}
			sr, streaming := s.responder.(StreamResponder)
			for {
				raw, err := ReadFrame(conn)
				if err != nil {
					return
				}
				if streaming {
					q := new(dns.Message)
					if err := q.UnpackFrom(raw); err == nil {
						handled, err := sr.HandleStream(src, q, func(m *dns.Message) error {
							out, perr := m.Pack()
							if perr != nil {
								return perr
							}
							return WriteFrame(conn, out)
						})
						if err != nil {
							return
						}
						if handled {
							continue
						}
					}
					// Malformed or unhandled: the single-message path below
					// owns FORMERR and ordinary answers alike.
				}
				out := ServeRaw(s.responder, src, raw, ViaTCP)
				if out == nil {
					return
				}
				if err := WriteFrame(conn, out); err != nil {
					return
				}
			}
		}()
	}
}

// Close shuts the sockets and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.pc != nil {
		s.closeErr = s.pc.Close()
	}
	if s.ln != nil {
		if err := s.ln.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.closeErr
}
