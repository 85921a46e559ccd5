package ipam

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestRegisterAndAllocate(t *testing.T) {
	db := New()
	asn := db.RegisterAS("EXAMPLE-NET", "US", 1)
	a1, err := db.Allocate(asn)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := db.Allocate(asn)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("duplicate allocation")
	}
	info, ok := db.Lookup(a1)
	if !ok {
		t.Fatal("Lookup failed")
	}
	if info.ASN != asn || info.ASName != "EXAMPLE-NET" || info.Country != "US" {
		t.Errorf("info = %+v", info)
	}
}

func TestConsecutiveAllocationsShareSubnet(t *testing.T) {
	db := New()
	asn := db.RegisterAS("SPF-CASE", "NL", 1)
	var addrs []netip.Addr
	for i := 0; i < 3; i++ {
		addrs = append(addrs, db.MustAllocate(asn))
	}
	// The masquerading-SPF case study needs 3 IPs in the same /24.
	p := netip.PrefixFrom(addrs[0], 24)
	for _, a := range addrs {
		if !p.Contains(a) {
			t.Errorf("%v not in %v", a, p)
		}
	}
}

func TestDistinctASesGetDistinctSpace(t *testing.T) {
	db := New()
	a := db.RegisterAS("A", "US", 2)
	b := db.RegisterAS("B", "DE", 2)
	if a == b {
		t.Fatal("ASN collision")
	}
	addrA := db.MustAllocate(a)
	addrB := db.MustAllocate(b)
	infoA, _ := db.Lookup(addrA)
	infoB, _ := db.Lookup(addrB)
	if infoA.ASN != a || infoB.ASN != b {
		t.Error("ownership mixed up")
	}
	if db.CountryOf(addrA) != "US" || db.CountryOf(addrB) != "DE" {
		t.Error("countries mixed up")
	}
}

func TestNoReservedSpaceAllocated(t *testing.T) {
	db := New()
	asn := db.RegisterAS("BIG", "US", 300)
	for i := 0; i < 5000; i++ {
		a := db.MustAllocate(asn)
		b := a.As4()
		if b[0] == 0 || b[0] == 10 || b[0] == 127 || b[0] >= 224 {
			t.Fatalf("reserved address allocated: %v", a)
		}
		if b[0] == 192 && b[1] == 168 {
			t.Fatalf("RFC1918 allocated: %v", a)
		}
		if b[0] == 203 && b[1] == 0 {
			t.Fatalf("documentation space allocated: %v", a)
		}
		if b[3] == 0 || b[3] == 255 {
			t.Fatalf("network/broadcast-looking address: %v", a)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	db := New()
	if _, ok := db.Lookup(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("unknown space resolved")
	}
	if _, ok := db.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 resolved in v4 db")
	}
	if db.CountryOf(netip.MustParseAddr("8.8.8.8")) != "" {
		t.Error("CountryOf unknown != empty")
	}
	if _, err := db.Allocate(12345); err == nil {
		t.Error("Allocate on unknown ASN succeeded")
	}
}

func TestExhaustion(t *testing.T) {
	db := New()
	asn := db.RegisterAS("TINY", "US", 1)
	// One /16 holds 65536 minus the skipped .0/.255 per /24 = 254*256 usable.
	count := 0
	for {
		_, err := db.Allocate(asn)
		if err != nil {
			break
		}
		count++
		if count > 70000 {
			t.Fatal("never exhausted")
		}
	}
	if count != 254*256 {
		t.Errorf("usable addresses = %d, want %d", count, 254*256)
	}
}

// Property: every allocated address resolves back to its owner.
func TestQuickAllocationsResolve(t *testing.T) {
	db := New()
	asns := []ASN{
		db.RegisterAS("ORG0", "US", 2),
		db.RegisterAS("ORG1", "DE", 2),
		db.RegisterAS("ORG2", "JP", 2),
	}
	f := func(pick uint8) bool {
		asn := asns[int(pick)%len(asns)]
		a, err := db.Allocate(asn)
		if err != nil {
			return false
		}
		info, ok := db.Lookup(a)
		return ok && info.ASN == asn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReservedHighRanges(t *testing.T) {
	cases := map[uint16]bool{
		0x0000: true,  // 0.0.0.0/8
		0x0A00: true,  // 10.0.0.0/8
		0x7F00: true,  // 127.0.0.0/8
		0xE000: true,  // 224.0.0.0/4 multicast
		0xFFFF: true,  // 255.255/16
		0xC0A8: true,  // 192.168/16
		0xC000: true,  // 192.0/16 (documentation neighborhood)
		0xC633: true,  // 198.51/16
		0xCB00: true,  // 203.0/16
		0xAC10: true,  // 172.16/16
		0xAC1F: true,  // 172.31/16
		0xAC20: false, // 172.32/16 is fine
		0xA9FE: true,  // 169.254/16 link-local
		0xA9FD: false, // 169.253/16 is fine
		0x0B00: false, // 11.0/16 is the allocator's first block
		0x5D00: false, // 93.0/16
	}
	for h, want := range cases {
		if got := reservedHigh(h); got != want {
			t.Errorf("reservedHigh(%#04x) = %v, want %v", h, got, want)
		}
	}
}
