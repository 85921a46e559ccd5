package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// testResponder answers every A query for test.example with 192.0.2.1 and
// NXDOMAIN otherwise, recording the via label each query arrived on.
type testResponder struct {
	vias []string
}

func (r *testResponder) HandleQuery(src netip.Addr, q *dns.Message) *dns.Message {
	return r.HandleQueryVia(src, q, dnsio.ViaUDP)
}

func (r *testResponder) HandleQueryVia(src netip.Addr, q *dns.Message, via string) *dns.Message {
	r.vias = append(r.vias, via)
	resp := q.Reply()
	if q.Question().Name == "test.example" && q.Question().Type == dns.TypeA {
		resp.Answers = append(resp.Answers, dns.RR{Name: q.Question().Name,
			Class: dns.ClassINET, TTL: 60, Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	} else {
		resp.Header.RCode = dns.RCodeNXDomain
	}
	return resp
}

func packedQuery(t *testing.T) []byte {
	t.Helper()
	q := dns.NewQuery(0x1234, "test.example", dns.TypeA)
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{"": KindUDP, "udp": KindUDP,
		"tcp": KindTCP, "dot": KindDoT, "doh": KindDoH} {
		k, err := ParseKind(in)
		if err != nil || k != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, k, err, want)
		}
	}
	if _, err := ParseKind("quic"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	} else if !strings.Contains(err.Error(), "quic") {
		t.Errorf("error does not name the bad kind: %v", err)
	}
}

// TestDoHQueryCodec pins the RFC 8484 ?dns= round trip and its negatives:
// unpadded base64url only, padded input rejected, size-capped.
func TestDoHQueryCodec(t *testing.T) {
	raw := []byte{0x12, 0x34, 0x01, 0x00, 0x00, 0x01}
	enc := EncodeDoHQuery(raw)
	if strings.ContainsAny(enc, "=+/") {
		t.Errorf("encoded form %q is not unpadded base64url", enc)
	}
	got, err := DecodeDoHParam(enc)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("round trip = %x, %v; want %x", got, err, raw)
	}

	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty", "", ErrDoHNoQuery},
		{"padded", "AAE=", ErrDoHBadBase64},
		{"not-base64", "!!!!", ErrDoHBadBase64},
		{"std-alphabet", "a+b/", ErrDoHBadBase64},
		{"oversize", strings.Repeat("A", 4*30000), ErrDoHTooLarge},
		{"zero-bytes", "", ErrDoHNoQuery},
	}
	for _, tc := range cases {
		if _, err := DecodeDoHParam(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeDoHParam = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDoHRequestDecode pins the HTTP-level negatives and their status codes:
// wrong method 405, wrong media type 415, oversize body 413, empty body and
// bad base64 400.
func TestDoHRequestDecode(t *testing.T) {
	raw := packedQuery(t)

	post := func(ct string, body []byte) *http.Request {
		r := httptest.NewRequest(http.MethodPost, DoHPath, bytes.NewReader(body))
		r.Header.Set("Content-Type", ct)
		return r
	}
	get := func(param string) *http.Request {
		return httptest.NewRequest(http.MethodGet, DoHPath+param, nil)
	}

	okCases := []*http.Request{
		post(DoHMediaType, raw),
		post(DoHMediaType+"; charset=utf-8", raw),
		get("?dns=" + EncodeDoHQuery(raw)),
	}
	for i, r := range okCases {
		got, err := DecodeDoHRequest(r)
		if err != nil || !bytes.Equal(got, raw) {
			t.Errorf("ok case %d: DecodeDoHRequest = %v", i, err)
		}
	}

	badCases := []struct {
		name   string
		req    *http.Request
		err    error
		status int
	}{
		{"put", httptest.NewRequest(http.MethodPut, DoHPath, nil), ErrDoHMethod, 405},
		{"delete", httptest.NewRequest(http.MethodDelete, DoHPath, nil), ErrDoHMethod, 405},
		{"json-body", post("application/json", raw), ErrDoHMediaType, 415},
		{"no-content-type", post("", raw), ErrDoHMediaType, 415},
		{"oversize-body", post(DoHMediaType, bytes.Repeat([]byte{0}, dns.MaxMessageSize+1)), ErrDoHTooLarge, 413},
		{"empty-body", post(DoHMediaType, nil), ErrDoHEmpty, 400},
		{"get-no-param", get(""), ErrDoHNoQuery, 400},
		{"get-padded", get("?dns=AAE%3D"), ErrDoHBadBase64, 400},
	}
	for _, tc := range badCases {
		_, err := DecodeDoHRequest(tc.req)
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		if got := dohStatus(err); got != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, got, tc.status)
		}
	}
}

// TestDoHHandlerEndToEnd drives the handler over a real HTTP listener with
// the production client (POST wire format and GET ?dns=), checks the answer,
// the via label, the content type, and that undecodable requests fire
// OnError with the mapped status.
func TestDoHHandlerEndToEnd(t *testing.T) {
	resp := &testResponder{}
	var errCount int
	mux := http.NewServeMux()
	mux.Handle(DoHPath, &DoHHandler{Responder: resp, OnError: func() { errCount++ }})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ap := netip.MustParseAddrPort(strings.TrimPrefix(srv.URL, "http://"))

	for _, useGET := range []bool{false, true} {
		tr := &NetDoH{UseGET: useGET}
		out, err := tr.Exchange(context.Background(), nil, ap, packedQuery(t), false)
		if err != nil {
			t.Fatalf("useGET=%v: %v", useGET, err)
		}
		m, err := dns.Unpack(out)
		if err != nil {
			t.Fatalf("useGET=%v: unpack: %v", useGET, err)
		}
		if len(m.Answers) != 1 || m.Header.ID != 0x1234 {
			t.Errorf("useGET=%v: got %d answers, id %#x", useGET, len(m.Answers), m.Header.ID)
		}
	}
	for _, via := range resp.vias {
		if via != dnsio.ViaDoH {
			t.Errorf("handler dispatched via %q, want %q", via, dnsio.ViaDoH)
		}
	}

	// Media-type negative over the wire: 415 and an OnError tick.
	hr, err := http.Post(srv.URL+DoHPath, "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("bad media type: status %d, want 415", hr.StatusCode)
	}
	// Unparsable DNS bytes: body decodes but has no header; 400 + OnError.
	hr, err = http.Post(srv.URL+DoHPath, DoHMediaType, bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("unparsable message: status %d, want 400", hr.StatusCode)
	}
	if errCount != 2 {
		t.Errorf("OnError fired %d times, want 2", errCount)
	}

	// The non-200 path must classify as a transient HTTP failure.
	tr := &NetDoH{Path: "/nowhere"}
	if _, err := tr.Exchange(context.Background(), nil, ap, packedQuery(t), false); !errors.Is(err, dnsio.ErrHTTPStatus) {
		t.Errorf("404 exchange error = %v, want ErrHTTPStatus", err)
	}
}

// TestDoTLoopback round-trips a query through a real TLS listener under a
// self-signed certificate, pinning the framing, the via label, and the
// handshake-failure classification for an untrusted cert.
func TestDoTLoopback(t *testing.T) {
	cert, pool, err := SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	resp := &testResponder{}
	srv, err := ServeDoT(resp, "127.0.0.1:0", cert)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := &NetDoT{TLS: &tls.Config{RootCAs: pool}, DialTimeout: 5 * time.Second}
	out, err := tr.Exchange(context.Background(), nil, srv.Addr(), packedQuery(t), false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dns.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 {
		t.Errorf("got %d answers, want 1", len(m.Answers))
	}
	if len(resp.vias) != 1 || resp.vias[0] != dnsio.ViaDoT {
		t.Errorf("server saw vias %v, want [dot]", resp.vias)
	}

	// A client with no trust anchor must fail the handshake and classify it
	// as the permanent TLS failure class, not a generic socket error.
	bad := &NetDoT{DialTimeout: 5 * time.Second}
	if _, err := bad.Exchange(context.Background(), nil, srv.Addr(), packedQuery(t), false); !errors.Is(err, dnsio.ErrTLSHandshake) {
		t.Errorf("untrusted handshake error = %v, want ErrTLSHandshake", err)
	}
}

// TestFrameRoundTrip pins the RFC 1035 two-octet framing both ways, plus the
// oversize refusal.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := bytes.Repeat([]byte{0xAB}, 300)
	if err := dnsio.WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 302 || buf.Bytes()[0] != 0x01 || buf.Bytes()[1] != 0x2C {
		t.Errorf("frame header = % x, len %d", buf.Bytes()[:2], buf.Len())
	}
	got, err := dnsio.ReadFrame(&buf)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("ReadFrame = %v (len %d)", err, len(got))
	}
	if err := dnsio.WriteFrame(&buf, make([]byte, dns.MaxMessageSize+1)); err == nil {
		t.Error("WriteFrame accepted an oversize message")
	}
	// A short header or truncated body must error, not block or panic.
	if _, err := dnsio.ReadFrame(bytes.NewReader([]byte{0x00})); err == nil {
		t.Error("ReadFrame accepted a one-byte header")
	}
	if _, err := dnsio.ReadFrame(bytes.NewReader([]byte{0x00, 0x05, 0x01})); err == nil {
		t.Error("ReadFrame accepted a truncated body")
	}
}

// TestSimHandshakeAmortized pins the modeled cost shape: one handshake per
// distinct server no matter how many exchanges, booked on the virtual clock
// only, and answers identical to the plain transport's.
func TestSimHandshakeAmortized(t *testing.T) {
	fabric := simnet.New(7)
	src := netip.MustParseAddr("10.9.0.1")
	servers := []netip.Addr{
		netip.MustParseAddr("10.9.1.1"),
		netip.MustParseAddr("10.9.1.2"),
		netip.MustParseAddr("10.9.1.3"),
	}
	resp := &testResponder{}
	for _, s := range servers {
		if _, err := dnsio.AttachSim(fabric, s, resp); err != nil {
			t.Fatal(err)
		}
	}

	plain := &dnsio.SimTransport{Fabric: fabric, Src: src}
	for _, k := range []Kind{KindDoT, KindDoH} {
		tr, err := NewSim(k, fabric, src)
		if err != nil {
			t.Fatal(err)
		}
		before := fabric.VirtualRTT()
		for round := 0; round < 5; round++ {
			for _, s := range servers {
				ap := netip.AddrPortFrom(s, dnsio.DNSPort)
				enc, err := tr.Exchange(context.Background(), nil, ap, packedQuery(t), false)
				if err != nil {
					t.Fatalf("%s exchange: %v", k, err)
				}
				want, err := plain.Exchange(context.Background(), nil, ap, packedQuery(t), false)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, want) {
					t.Fatalf("%s answer differs from plain transport", k)
				}
			}
		}
		hs := tr.(interface{ Handshakes() int64 }).Handshakes()
		if hs != int64(len(servers)) {
			t.Errorf("%s: %d handshakes for %d servers over 5 rounds, want one each", k, hs, len(servers))
		}
		if fabric.VirtualRTT() <= before {
			t.Errorf("%s: no modeled cost booked on the virtual clock", k)
		}
	}
}
