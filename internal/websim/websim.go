// Package websim simulates the web-layer enrichment surface that URHunter
// probes for every IP address found in an undelegated A record: an HTTP
// responder (port 80) and a TLS certificate endpoint (port 443) per IP,
// served over the internal/simnet fabric.
//
// Substitution note (see DESIGN.md): the paper fetches real HTTP responses
// and TLS certificates. URHunter's classifier consumes only (a) keyword
// statistics from the HTTP body — "parked", "parking", "redirecting" — and
// (b) the certificate's identity (subject/issuer/SANs). The port-80 exchange
// here carries genuine HTTP/1.0 request and response bytes; the port-443
// exchange returns the certificate fields in a compact text encoding instead
// of performing a TLS handshake, which preserves exactly the information the
// classifier uses.
package websim

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"repro/internal/simnet"
)

// Kind classifies what a site at an IP address is.
type Kind int

// Site kinds, mirroring the page categories URHunter's HTTP analysis
// distinguishes (§4.2, Appendix B).
const (
	// KindNone: nothing listens on the IP.
	KindNone Kind = iota
	// KindBusiness: a legitimate site for a specific domain.
	KindBusiness
	// KindCDNEdge: a CDN edge node serving a legitimate domain.
	KindCDNEdge
	// KindParking: a domain-parking page.
	KindParking
	// KindRedirect: a page that only redirects elsewhere.
	KindRedirect
	// KindProviderWarning: a hosting provider's protective/warning page for
	// unconfigured domains.
	KindProviderWarning
	// KindC2: attacker infrastructure; serves nothing meaningful.
	KindC2
	// KindMailServer: SMTP-focused host with a minimal web presence.
	KindMailServer
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindBusiness:
		return "business"
	case KindCDNEdge:
		return "cdn-edge"
	case KindParking:
		return "parking"
	case KindRedirect:
		return "redirect"
	case KindProviderWarning:
		return "provider-warning"
	case KindC2:
		return "c2"
	case KindMailServer:
		return "mail"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Cert carries the certificate identity fields Appendix B compares.
type Cert struct {
	Subject     string
	Issuer      string
	SANs        []string
	Fingerprint string
}

// NewCert builds a certificate with a deterministic fingerprint derived from
// its identity fields.
func NewCert(subject, issuer string, sans ...string) *Cert {
	h := fnv.New64a()
	h.Write([]byte(subject))
	h.Write([]byte{0})
	h.Write([]byte(issuer))
	for _, s := range sans {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return &Cert{
		Subject:     subject,
		Issuer:      issuer,
		SANs:        sans,
		Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// encode renders the cert for the simulated port-443 exchange.
func (c *Cert) encode() []byte {
	return []byte(strings.Join([]string{
		c.Subject, c.Issuer, strings.Join(c.SANs, ","), c.Fingerprint,
	}, "\n"))
}

// decodeCert parses the port-443 payload.
func decodeCert(b []byte) (*Cert, error) {
	parts := strings.Split(string(b), "\n")
	if len(parts) != 4 {
		return nil, fmt.Errorf("websim: malformed cert payload (%d lines)", len(parts))
	}
	var sans []string
	if parts[2] != "" {
		sans = strings.Split(parts[2], ",")
	}
	return &Cert{Subject: parts[0], Issuer: parts[1], SANs: sans, Fingerprint: parts[3]}, nil
}

// Site is the web presence installed at one IP address.
type Site struct {
	Addr  netip.Addr
	Kind  Kind
	Title string
	// RedirectTo is the Location target for KindRedirect sites.
	RedirectTo string
	Cert       *Cert
}

// body renders the HTML body for the site's kind. The keyword phrasing is
// load-bearing: URHunter's parked/redirect exclusion greps for these terms.
func (s *Site) body() string {
	switch s.Kind {
	case KindParking:
		return fmt.Sprintf("<html><title>%s - parked</title><body>This domain is parked free, courtesy of the registrar. Buy this parked domain today.</body></html>", s.Title)
	case KindRedirect:
		return fmt.Sprintf("<html><title>%s</title><body>Redirecting you to %s ...</body></html>", s.Title, s.RedirectTo)
	case KindProviderWarning:
		return fmt.Sprintf("<html><title>Warning</title><body>Warning: the domain %s is not configured on this hosting service. If you are the owner, complete the delegation.</body></html>", s.Title)
	case KindBusiness, KindCDNEdge:
		return fmt.Sprintf("<html><title>%s</title><body>Welcome to %s. Products, services and contact information.</body></html>", s.Title, s.Title)
	case KindMailServer:
		return fmt.Sprintf("<html><title>%s</title><body>Mail relay node %s.</body></html>", s.Title, s.Title)
	case KindC2:
		return "<html><body>403</body></html>"
	}
	return ""
}

// statusCode returns the HTTP status the site answers with.
func (s *Site) statusCode() int {
	switch s.Kind {
	case KindRedirect:
		return 302
	case KindC2:
		return 403
	default:
		return 200
	}
}

// World installs sites on the fabric and probes them.
type World struct {
	fabric *simnet.Fabric

	mu    sync.RWMutex
	sites map[netip.Addr]*Site
}

// NewWorld wraps a fabric.
func NewWorld(f *simnet.Fabric) *World {
	return &World{fabric: f, sites: make(map[netip.Addr]*Site)}
}

// Install registers the site's HTTP endpoint (and TLS endpoint when a cert
// is present) on the fabric.
func (w *World) Install(s *Site) error {
	if s.Kind == KindNone {
		return nil
	}
	httpEP := simnet.Endpoint{Addr: s.Addr, Port: 80}
	if err := w.fabric.Listen(httpEP, simnet.HandlerFunc(s.serveHTTP)); err != nil {
		return err
	}
	if s.Cert != nil {
		tlsEP := simnet.Endpoint{Addr: s.Addr, Port: 443}
		if err := w.fabric.Listen(tlsEP, simnet.HandlerFunc(s.serveTLS)); err != nil {
			w.fabric.Unlisten(httpEP)
			return err
		}
	}
	w.mu.Lock()
	w.sites[s.Addr] = s
	w.mu.Unlock()
	return nil
}

// Site returns the installed site at an address, if any.
func (w *World) Site(addr netip.Addr) (*Site, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s, ok := w.sites[addr]
	return s, ok
}

// serveHTTP answers a minimal HTTP/1.0 GET.
func (s *Site) serveHTTP(dst []byte, _ netip.Addr, req []byte) []byte {
	line, _, _ := strings.Cut(string(req), "\r\n")
	if !strings.HasPrefix(line, "GET ") {
		return append(dst, "HTTP/1.0 405 Method Not Allowed\r\n\r\n"...)
	}
	body := s.body()
	code := s.statusCode()
	dst = fmt.Appendf(dst, "HTTP/1.0 %d %s\r\n", code, statusText(code))
	if s.Kind == KindRedirect {
		dst = fmt.Appendf(dst, "Location: %s\r\n", s.RedirectTo)
	}
	return fmt.Appendf(dst, "Content-Type: text/html\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// serveTLS answers the simulated certificate fetch.
func (s *Site) serveTLS(_ []byte, _ netip.Addr, req []byte) []byte {
	if string(req) != "CERT?" {
		return nil
	}
	return s.Cert.encode()
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 302:
		return "Found"
	case 403:
		return "Forbidden"
	default:
		return "Status"
	}
}

// ProbeResult is what URHunter's collector records for an IP address.
type ProbeResult struct {
	Reachable  bool
	StatusCode int
	Body       string
	Location   string
	Cert       *Cert
}

// Probe fetches the HTTP response and certificate of an address, as
// URHunter's response-collection stage does for every undelegated A record.
func (w *World) Probe(src, addr netip.Addr) ProbeResult {
	var res ProbeResult
	req := []byte("GET / HTTP/1.0\r\nHost: probe\r\n\r\n")
	raw, err := w.fabric.ExchangeReliable(src, simnet.Endpoint{Addr: addr, Port: 80}, req)
	if err == nil {
		res.Reachable = true
		res.StatusCode, res.Location, res.Body = parseHTTP(raw)
	}
	cert, err := w.fabric.ExchangeReliable(src, simnet.Endpoint{Addr: addr, Port: 443}, []byte("CERT?"))
	if err == nil {
		if c, cerr := decodeCert(cert); cerr == nil {
			res.Cert = c
			res.Reachable = true
		}
	}
	return res
}

// parseHTTP extracts status code, Location header, and body.
func parseHTTP(raw []byte) (code int, location, body string) {
	head, b, found := strings.Cut(string(raw), "\r\n\r\n")
	if found {
		body = b
	}
	lines := strings.Split(head, "\r\n")
	if len(lines) > 0 {
		fields := strings.Fields(lines[0])
		if len(fields) >= 2 {
			if c, err := strconv.Atoi(fields[1]); err == nil {
				code = c
			}
		}
	}
	for _, l := range lines[1:] {
		if v, ok := strings.CutPrefix(l, "Location: "); ok {
			location = v
		}
	}
	return code, location, body
}
