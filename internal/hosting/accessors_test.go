package hosting

import (
	"errors"
	"testing"
	"time"
)

func TestPolicyStrings(t *testing.T) {
	if GlobalFixed.String() != "global-fixed" || AccountFixed.String() != "account-fixed" ||
		RandomPool.String() != "random" || NSAllocation(9).String() != "unknown" {
		t.Error("NSAllocation strings wrong")
	}
	if VerifyNone.String() != "none" || VerifyNSDelegation.String() != "ns-delegation" ||
		VerifyTXTChallenge.String() != "txt-challenge" || Verification(9).String() != "unknown" {
		t.Error("Verification strings wrong")
	}
}

func TestAppendixCPresetsOrder(t *testing.T) {
	presets := AppendixCPresets()
	want := []string{"Alibaba Cloud", "Amazon", "Baidu Cloud", "ClouDNS",
		"Cloudflare", "Godaddy", "Tencent Cloud"}
	if len(presets) != len(want) {
		t.Fatalf("presets = %d", len(presets))
	}
	for i, p := range presets {
		if p.Name != want[i] {
			t.Errorf("preset %d = %s, want %s (Table 2 row order)", i, p.Name, want[i])
		}
		if p.Verification != VerifyNone || !p.ServeUnverified {
			t.Errorf("%s: pre-disclosure preset must host without verification", p.Name)
		}
	}
}

func TestProviderAccessors(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "acc.com")
	p := w.mustProvider(t, PresetGodaddy())
	if len(p.NameserverAddrs()) != len(p.Nameservers()) {
		t.Error("NameserverAddrs length mismatch")
	}
	p.OpenAccount("a", false)
	hz, err := p.CreateZone("a", "acc.com")
	if err != nil {
		t.Fatal(err)
	}
	addrs := hz.NSAddrs()
	if len(addrs) != len(hz.NS) {
		t.Fatalf("NSAddrs = %d", len(addrs))
	}
	for i, ns := range hz.NS {
		if addrs[i] != ns.Addr {
			t.Errorf("NSAddrs[%d] mismatch", i)
		}
	}
	// Refusal error text.
	_, err = p.CreateZone("a", "acc.com")
	if err == nil || err.Error() == "" {
		t.Error("refusal error text empty")
	}
	// Non-CDN provider has no edges.
	if _, ok := p.EdgeAddr("US"); ok {
		t.Error("non-CDN provider returned an edge")
	}
	// CDN provider falls back to the US edge for unknown countries.
	cf := w.mustProvider(t, PresetCloudflare())
	us, ok := cf.EdgeAddr("US")
	if !ok {
		t.Fatal("no US edge")
	}
	fallback, ok := cf.EdgeAddr("ZZ")
	if !ok || fallback != us {
		t.Errorf("unknown-country edge = %v, want US %v", fallback, us)
	}
}

func TestRecheckNSDelegation(t *testing.T) {
	w := newWorld(t)
	pol := PostDisclosure(PresetTencent(), nil)
	p, err := NewProvider(pol, w.deps(21))
	if err != nil {
		t.Fatal(err)
	}
	w.registerDomain(t, "late.com")
	p.OpenAccount("owner", false)
	hz, err := p.CreateZone("owner", "late.com")
	if err != nil {
		t.Fatal(err)
	}
	if hz.Served() {
		t.Fatal("zone served before delegation")
	}
	// First recheck fails: the delegation still points elsewhere.
	if p.RecheckNSDelegation(hz) {
		t.Error("recheck passed without delegation")
	}
	// Owner completes the delegation; recheck passes and the zone serves.
	if err := w.reg.SetDelegation("late.com", hz.NSHosts(), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if !p.RecheckNSDelegation(hz) {
		t.Error("recheck failed after delegation")
	}
	if !hz.Served() || !hz.Verified {
		t.Error("zone not served after passing recheck")
	}
	// Idempotent.
	if !p.RecheckNSDelegation(hz) {
		t.Error("second recheck failed")
	}
	// A provider without that verification mode reports current state.
	gd := w.mustProvider(t, PresetGodaddy())
	gd.OpenAccount("x", false)
	w.registerDomain(t, "plain.com")
	hz2, err := gd.CreateZone("x", "plain.com")
	if err != nil {
		t.Fatal(err)
	}
	if !gd.RecheckNSDelegation(hz2) {
		t.Error("VerifyNone provider should report verified")
	}
}

func TestZonesForAndHostedDomains(t *testing.T) {
	w := newWorld(t)
	w.registerDomain(t, "list.com")
	p := w.mustProvider(t, PresetTencent())
	p.OpenAccount("a", false)
	p.OpenAccount("b", false)
	if _, err := p.CreateZone("a", "list.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateZone("b", "list.com"); err != nil {
		t.Fatal(err)
	}
	if got := len(p.ZonesFor("list.com")); got != 2 {
		t.Errorf("ZonesFor = %d", got)
	}
	if got := p.HostedDomains(); len(got) != 1 || got[0] != "list.com" {
		t.Errorf("HostedDomains = %v", got)
	}
	if _, ok := IsRefusal(errors.New("plain error")); ok {
		t.Error("IsRefusal matched a non-refusal")
	}
	if _, ok := IsRefusal(nil); ok {
		t.Error("IsRefusal matched nil")
	}
}
