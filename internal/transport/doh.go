package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// RFC 8484 constants.
const (
	// DoHMediaType is the one media type the protocol defines.
	DoHMediaType = "application/dns-message"
	// DoHPath is the conventional query endpoint.
	DoHPath = "/dns-query"
)

// DoH request decoding errors. The handler maps each onto its HTTP status;
// fuzzing pins that arbitrary input always lands on one of these, never a
// panic.
var (
	ErrDoHMethod    = errors.New("transport: DoH request method must be GET or POST")
	ErrDoHNoQuery   = errors.New("transport: DoH GET without a dns= query parameter")
	ErrDoHBadBase64 = errors.New("transport: DoH dns= parameter is not unpadded base64url")
	ErrDoHMediaType = errors.New("transport: DoH POST content-type must be application/dns-message")
	ErrDoHTooLarge  = errors.New("transport: DoH request body exceeds the DNS message limit")
	ErrDoHEmpty     = errors.New("transport: DoH request carries no message bytes")
)

// EncodeDoHQuery renders packed query bytes as the unpadded base64url value
// of the ?dns= parameter (RFC 8484 §4.1).
func EncodeDoHQuery(packed []byte) string {
	return base64.RawURLEncoding.EncodeToString(packed)
}

// DecodeDoHParam decodes one ?dns= parameter value back to wire bytes. RFC
// 8484 mandates unpadded encoding, so '=' anywhere is rejected rather than
// tolerated — two spellings of one query would poison HTTP caches.
func DecodeDoHParam(v string) ([]byte, error) {
	if v == "" {
		return nil, ErrDoHNoQuery
	}
	if strings.ContainsRune(v, '=') {
		return nil, fmt.Errorf("%w: padded input", ErrDoHBadBase64)
	}
	if base64.RawURLEncoding.DecodedLen(len(v)) > dns.MaxMessageSize {
		return nil, ErrDoHTooLarge
	}
	raw, err := base64.RawURLEncoding.DecodeString(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDoHBadBase64, err)
	}
	if len(raw) == 0 {
		return nil, ErrDoHEmpty
	}
	return raw, nil
}

// DecodeDoHRequest extracts the DNS wire-format query from an RFC 8484
// request: GET carries it in ?dns= (base64url, unpadded), POST carries it
// verbatim as an application/dns-message body.
func DecodeDoHRequest(r *http.Request) ([]byte, error) {
	switch r.Method {
	case http.MethodGet:
		return DecodeDoHParam(r.URL.Query().Get("dns"))
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if mt, _, _ := strings.Cut(ct, ";"); strings.TrimSpace(mt) != DoHMediaType {
			return nil, fmt.Errorf("%w: got %q", ErrDoHMediaType, ct)
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, dns.MaxMessageSize+1))
		if err != nil {
			return nil, err
		}
		if len(body) > dns.MaxMessageSize {
			return nil, ErrDoHTooLarge
		}
		if len(body) == 0 {
			return nil, ErrDoHEmpty
		}
		return body, nil
	}
	return nil, fmt.Errorf("%w: got %s", ErrDoHMethod, r.Method)
}

// dohStatus maps a decode error onto its HTTP status.
func dohStatus(err error) int {
	switch {
	case errors.Is(err, ErrDoHMethod):
		return http.StatusMethodNotAllowed
	case errors.Is(err, ErrDoHMediaType):
		return http.StatusUnsupportedMediaType
	case errors.Is(err, ErrDoHTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DoHHandler serves a dnsio.Responder at an RFC 8484 endpoint. Decoded
// queries run through dnsio.ServeRaw with via="doh", so ViaResponder
// implementations (urwatchd's metrics) see the transport; undecodable
// requests get the matching HTTP status and fire OnError.
type DoHHandler struct {
	Responder dnsio.Responder
	// OnError, when non-nil, counts requests that never decoded to a DNS
	// message (bad method, media type, base64, size).
	OnError func()
}

// ServeHTTP implements http.Handler.
func (h *DoHHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw, err := DecodeDoHRequest(r)
	if err != nil {
		if h.OnError != nil {
			h.OnError()
		}
		http.Error(w, err.Error(), dohStatus(err))
		return
	}
	src := ClientAddr(r)
	out := dnsio.ServeRaw(h.Responder, src, raw, dnsio.ViaDoH)
	if out == nil {
		// The message had no parsable header; nothing sensible to frame.
		if h.OnError != nil {
			h.OnError()
		}
		http.Error(w, "unparsable DNS message", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", DoHMediaType)
	// The feed changes per generation; keep HTTP caches out of the loop the
	// same way the DNSBL zone's short TTLs do.
	w.Header().Set("Cache-Control", "max-age=0")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// ClientAddr extracts the peer IP from an HTTP request's RemoteAddr: the
// address of an "ip:port" or a bare IP, the zero Addr for anything else — a
// bucket every unparsable client shares, so a rate limiter fails closed.
func ClientAddr(r *http.Request) netip.Addr {
	if ap, err := netip.ParseAddrPort(r.RemoteAddr); err == nil {
		return ap.Addr()
	}
	if a, err := netip.ParseAddr(r.RemoteAddr); err == nil {
		return a
	}
	return netip.Addr{}
}

// NetDoH is a dnsio.Transport speaking RFC 8484 against real HTTP servers.
// The zero value POSTs wire-format bodies over plain HTTP to /dns-query on
// the exchange's server address — the shape urwatchd serves; point Scheme at
// "https" (with Client carrying the TLS config) for a production resolver.
type NetDoH struct {
	// Scheme selects http or https; empty means http.
	Scheme string
	// Path is the endpoint path; empty means /dns-query.
	Path string
	// UseGET switches to the ?dns= base64url form instead of POST.
	UseGET bool
	// Client issues the requests; nil uses a modest-timeout default.
	Client *http.Client
}

// defaultDoHClient bounds a zero-value NetDoH the way NewClient bounds its
// attempts.
var defaultDoHClient = &http.Client{Timeout: 5 * time.Second}

// Exchange implements dnsio.Transport. The tcp flag is meaningless over
// HTTP — responses are never truncated — so it is ignored, and so is the lent
// buffer: the body is read to its own length.
func (t *NetDoH) Exchange(ctx context.Context, _ []byte, server netip.AddrPort, packed []byte, _ bool) ([]byte, error) {
	scheme := t.Scheme
	if scheme == "" {
		scheme = "http"
	}
	path := t.Path
	if path == "" {
		path = DoHPath
	}
	url := scheme + "://" + server.String() + path

	var req *http.Request
	var err error
	if t.UseGET {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			url+"?dns="+EncodeDoHQuery(packed), nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url,
			bytes.NewReader(packed))
		if req != nil {
			req.Header.Set("Content-Type", DoHMediaType)
		}
	}
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", DoHMediaType)

	client := t.Client
	if client == nil {
		client = defaultDoHClient
	}
	resp, err := client.Do(req)
	if err != nil {
		if isTLSHandshakeErr(err) {
			return nil, fmt.Errorf("%w: %v", dnsio.ErrTLSHandshake, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%w: %s", dnsio.ErrHTTPStatus, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, dns.MaxMessageSize+1))
	if err != nil {
		return nil, err
	}
	if len(body) > dns.MaxMessageSize {
		return nil, fmt.Errorf("%w: response body over the message limit", dnsio.ErrMalformed)
	}
	return body, nil
}

// isTLSHandshakeErr spots crypto-layer failures inside net/http's wrapped
// dial errors.
func isTLSHandshakeErr(err error) bool {
	s := err.Error()
	return strings.Contains(s, "tls:") || strings.Contains(s, "x509:")
}
