package threatintel

import (
	"net/netip"
	"slices"
	"testing"
)

var (
	ip1 = netip.MustParseAddr("66.10.0.1")
	ip2 = netip.MustParseAddr("66.10.0.2")
	ip3 = netip.MustParseAddr("66.10.0.3")
)

func TestVendorFlagAndLookup(t *testing.T) {
	v := NewVendor("TestAV")
	v.Flag(ip1, TagTrojan, TagC2)
	v.Flag(ip1, TagTrojan) // idempotent
	tags, ok := v.listed[ip1]
	if !ok || len(tags) != 2 {
		t.Fatalf("tags = %v %v", tags, ok)
	}
	if _, ok := v.listed[ip2]; ok {
		t.Error("unflagged IP listed")
	}
	// Flagging with no tags defaults to Other.
	v.Flag(ip2)
	tags = v.listed[ip2]
	if len(tags) != 1 || tags[0] != TagOther {
		t.Errorf("default tags = %v", tags)
	}
}

func TestAggregator(t *testing.T) {
	a := NewAggregator([]string{"V1", "V2", "V3"})
	v1, _ := a.Vendor("V1")
	v2, _ := a.Vendor("V2")
	v1.Flag(ip1, TagTrojan)
	v2.Flag(ip1, TagBotnet)
	v2.Flag(ip2, TagScanner)

	rep := a.Lookup(ip1)
	if rep.VendorCount() != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if !slices.Equal(rep.Tags, []Tag{TagBotnet, TagTrojan}) {
		t.Errorf("tags = %v", rep.Tags)
	}
	if rep.Vendors[0] != "V1" || rep.Vendors[1] != "V2" {
		t.Errorf("vendors = %v", rep.Vendors)
	}
	if !a.IsMalicious(ip2) {
		t.Error("ip2 should be malicious")
	}
	if a.IsMalicious(ip3) {
		t.Error("ip3 should be clean")
	}
	if a.Lookup(ip3).VendorCount() != 0 {
		t.Error("clean report marked malicious")
	}
	if _, ok := a.Vendor("NOPE"); ok {
		t.Error("unknown vendor resolved")
	}
}

func TestDefaultVendorPanel(t *testing.T) {
	names := DefaultVendorNames()
	if len(names) != 74 {
		t.Fatalf("panel size = %d, want 74 (the Specter case study's vendor count)", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate vendor %s", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"VirusTotal", "QAX", "360Security"} {
		if !seen[want] {
			t.Errorf("panel missing %s", want)
		}
	}
	a := NewAggregator(names)
	if a.VendorCount() != 74 || len(a.Vendors()) != 74 {
		t.Error("aggregator panel size wrong")
	}
}

func TestVendorCountDistributionSupport(t *testing.T) {
	// Figure 3(b) needs up to 11 flagging vendors per IP.
	a := NewAggregator(DefaultVendorNames())
	for i, v := range a.Vendors() {
		if i >= 11 {
			break
		}
		v.Flag(ip1, TagTrojan)
	}
	if got := a.Lookup(ip1).VendorCount(); got != 11 {
		t.Errorf("vendor count = %d", got)
	}
}
