package transport

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnsio"
)

// DoTPort is the RFC 7858 service port.
const DoTPort = 853

// NetDoT is a dnsio.Transport over real TLS sockets: dial, handshake, then
// the plain two-octet stream framing inside the session. Each exchange uses
// a fresh connection — correct, if not connection-reusing; the sim transport
// models the amortized shape, and a pooled NetDoT is future work noted in
// DESIGN.md §14.
type NetDoT struct {
	// TLS configures the client side; it must carry RootCAs (or
	// InsecureSkipVerify for loopback demos). nil performs the default
	// WebPKI verification.
	TLS *tls.Config
	// DialTimeout bounds the TCP connect; the context bounds the rest.
	DialTimeout time.Duration
}

// Exchange implements dnsio.Transport. The tcp flag is meaningless — DoT is
// always a stream, responses never truncate — so it is ignored, and so is the
// lent buffer: a framed response sizes itself.
func (t *NetDoT) Exchange(ctx context.Context, _ []byte, server netip.AddrPort, packed []byte, _ bool) ([]byte, error) {
	d := net.Dialer{Timeout: t.DialTimeout}
	raw, err := d.DialContext(ctx, "tcp", server.String())
	if err != nil {
		return nil, err
	}
	conn := tls.Client(raw, t.tlsConfig(server))
	if err := conn.HandshakeContext(ctx); err != nil {
		raw.Close()
		return nil, fmt.Errorf("%w: %v", dnsio.ErrTLSHandshake, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := dnsio.WriteFrame(conn, packed); err != nil {
		return nil, err
	}
	return dnsio.ReadFrame(conn)
}

func (t *NetDoT) tlsConfig(server netip.AddrPort) *tls.Config {
	cfg := t.TLS
	if cfg == nil {
		cfg = &tls.Config{}
	}
	cfg = cfg.Clone()
	if cfg.ServerName == "" {
		cfg.ServerName = server.Addr().String()
	}
	return cfg
}

// DoTServer serves a dnsio.Responder over TLS-framed DNS. Queries dispatch
// through dnsio.ServeRaw with via="dot".
type DoTServer struct {
	responder dnsio.Responder
	ln        net.Listener
	addr      netip.AddrPort
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// ServeDoT starts a DoT listener on addr ("127.0.0.1:0" picks a port) with
// the given server certificate.
func ServeDoT(r dnsio.Responder, addr string, cert tls.Certificate) (*DoTServer, error) {
	ln, err := tls.Listen("tcp", addr, &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		return nil, err
	}
	s := &DoTServer{responder: r, ln: ln}
	s.addr = ln.Addr().(*net.TCPAddr).AddrPort()
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound address.
func (s *DoTServer) Addr() netip.AddrPort { return s.addr }

func (s *DoTServer) serve() {
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
			for {
				raw, err := dnsio.ReadFrame(conn)
				if err != nil {
					return
				}
				out := dnsio.ServeRaw(s.responder, src, raw, dnsio.ViaDoT)
				if out == nil {
					return
				}
				if err := dnsio.WriteFrame(conn, out); err != nil {
					return
				}
			}
		}()
	}
}

// Close shuts the listener and waits for in-flight connections.
func (s *DoTServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		err = s.ln.Close()
		s.wg.Wait()
	})
	return err
}

// SelfSignedCert mints an ECDSA certificate for the given hosts (DNS names
// or IP literals) plus the pool trusting it — what the dnsq demo and the
// loopback tests pin their TLS on instead of a real CA.
func SelfSignedCert(hosts ...string) (tls.Certificate, *x509.CertPool, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: "repro-dot"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	if len(hosts) == 0 {
		return tls.Certificate{}, nil, errors.New("transport: self-signed cert needs at least one host")
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	return cert, pool, nil
}
