package websim

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/simnet"
)

var probeSrc = netip.MustParseAddr("198.51.100.10")

func newWorld() *World {
	return NewWorld(simnet.New(1))
}

func TestProbeBusinessSiteWithCert(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.1")
	site := &Site{
		Addr: addr, Kind: KindBusiness, Title: "example.com",
		Cert: NewCert("example.com", "TrustedCA", "example.com", "www.example.com"),
	}
	if err := w.Install(site); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, addr)
	if !res.Reachable || res.StatusCode != 200 {
		t.Fatalf("probe: %+v", res)
	}
	if !strings.Contains(res.Body, "example.com") {
		t.Errorf("body: %q", res.Body)
	}
	if res.Cert == nil || res.Cert.Subject != "example.com" || len(res.Cert.SANs) != 2 {
		t.Errorf("cert: %+v", res.Cert)
	}
	if res.Cert.Fingerprint != site.Cert.Fingerprint {
		t.Error("fingerprint mismatch")
	}
}

func TestProbeParkingKeywords(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.2")
	if err := w.Install(&Site{Addr: addr, Kind: KindParking, Title: "old-site.com"}); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, addr)
	if !strings.Contains(strings.ToLower(res.Body), "parked") {
		t.Errorf("parking body lacks keyword: %q", res.Body)
	}
	if res.Cert != nil {
		t.Error("certless site returned a cert")
	}
}

func TestProbeRedirect(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.3")
	if err := w.Install(&Site{Addr: addr, Kind: KindRedirect, Title: "r.com",
		RedirectTo: "https://elsewhere.test/"}); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, addr)
	if res.StatusCode != 302 {
		t.Errorf("status = %d", res.StatusCode)
	}
	if res.Location != "https://elsewhere.test/" {
		t.Errorf("location = %q", res.Location)
	}
	if !strings.Contains(strings.ToLower(res.Body), "redirecting") {
		t.Errorf("redirect body lacks keyword: %q", res.Body)
	}
}

func TestProbeProviderWarning(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.4")
	if err := w.Install(&Site{Addr: addr, Kind: KindProviderWarning, Title: "victim.com"}); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, addr)
	low := strings.ToLower(res.Body)
	if !strings.Contains(low, "warning") || !strings.Contains(low, "not configured") {
		t.Errorf("warning body: %q", res.Body)
	}
}

func TestProbeUnreachable(t *testing.T) {
	w := newWorld()
	res := w.Probe(probeSrc, netip.MustParseAddr("93.99.99.99"))
	if res.Reachable {
		t.Error("unreachable address reported reachable")
	}
}

func TestProbeC2IsBland(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.5")
	if err := w.Install(&Site{Addr: addr, Kind: KindC2, Title: "c2"}); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, addr)
	if res.StatusCode != 403 {
		t.Errorf("C2 status = %d", res.StatusCode)
	}
	for _, kw := range []string{"parked", "parking", "redirecting", "warning"} {
		if strings.Contains(strings.ToLower(res.Body), kw) {
			t.Errorf("C2 body contains exclusion keyword %q", kw)
		}
	}
}

func TestInstallKindNoneNoop(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.6")
	if err := w.Install(&Site{Addr: addr, Kind: KindNone}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.sites[addr]; ok {
		t.Error("KindNone site registered")
	}
}

func TestInstallConflict(t *testing.T) {
	w := newWorld()
	addr := netip.MustParseAddr("93.10.0.7")
	if err := w.Install(&Site{Addr: addr, Kind: KindBusiness, Title: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Install(&Site{Addr: addr, Kind: KindBusiness, Title: "b"}); err == nil {
		t.Error("conflicting install accepted")
	}
}

func TestCertDeterministicFingerprint(t *testing.T) {
	a := NewCert("cn", "issuer", "san1")
	b := NewCert("cn", "issuer", "san1")
	c := NewCert("cn", "issuer", "san2")
	if a.Fingerprint != b.Fingerprint {
		t.Error("same identity, different fingerprints")
	}
	if a.Fingerprint == c.Fingerprint {
		t.Error("different identity, same fingerprint")
	}
}

func TestCertEncodeDecode(t *testing.T) {
	c := NewCert("example.com", "CA", "a.example.com", "b.example.com")
	got, err := decodeCert(c.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Subject != c.Subject || got.Issuer != c.Issuer ||
		len(got.SANs) != 2 || got.Fingerprint != c.Fingerprint {
		t.Errorf("decode = %+v", got)
	}
	noSAN := NewCert("x", "y")
	got, err = decodeCert(noSAN.encode())
	if err != nil || len(got.SANs) != 0 {
		t.Errorf("no-SAN decode: %+v %v", got, err)
	}
	if _, err := decodeCert([]byte("garbage")); err == nil {
		t.Error("garbage cert decoded")
	}
}

func TestHTTPMethodRejected(t *testing.T) {
	s := &Site{Kind: KindBusiness, Title: "x"}
	resp := s.serveHTTP(nil, probeSrc, []byte("POST / HTTP/1.0\r\n\r\n"))
	if !strings.Contains(string(resp), "405") {
		t.Errorf("response: %q", resp)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindNone: "none", KindBusiness: "business", KindCDNEdge: "cdn-edge",
		KindParking: "parking", KindRedirect: "redirect",
		KindProviderWarning: "provider-warning", KindC2: "c2", KindMailServer: "mail",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCDNEdgeKindAndMailServer(t *testing.T) {
	w := newWorld()
	edge := netip.MustParseAddr("93.10.1.1")
	if err := w.Install(&Site{Addr: edge, Kind: KindCDNEdge, Title: "edge US",
		Cert: NewCert("*.cdn.provider.test", "Provider CA")}); err != nil {
		t.Fatal(err)
	}
	res := w.Probe(probeSrc, edge)
	if !res.Reachable || res.StatusCode != 200 || res.Cert == nil {
		t.Errorf("edge probe: %+v", res)
	}
	mail := netip.MustParseAddr("93.10.1.2")
	if err := w.Install(&Site{Addr: mail, Kind: KindMailServer, Title: "mx1"}); err != nil {
		t.Fatal(err)
	}
	res = w.Probe(probeSrc, mail)
	if !strings.Contains(res.Body, "Mail relay") {
		t.Errorf("mail body: %q", res.Body)
	}
	if site, ok := w.sites[edge]; !ok || site.Kind != KindCDNEdge {
		t.Error("edge site not installed")
	}
}
