package dns

import (
	"reflect"
	"testing"
)

func TestParseRRForms(t *testing.T) {
	cases := []struct {
		line string
		want RR
	}{
		{
			"example.com 300 IN A 192.0.2.1",
			RR{Name: "example.com", TTL: 300, Class: ClassINET, Data: &A{Addr: mustAddr("192.0.2.1")}},
		},
		{
			"example.com A 192.0.2.1", // default TTL and class
			RR{Name: "example.com", TTL: 3600, Class: ClassINET, Data: &A{Addr: mustAddr("192.0.2.1")}},
		},
		{
			"example.com 60 NS ns1.hosting.net",
			RR{Name: "example.com", TTL: 60, Class: ClassINET, Data: &NS{Host: "ns1.hosting.net"}},
		},
		{
			`example.com 60 IN TXT "v=spf1 ip4:203.0.113.5 -all"`,
			RR{Name: "example.com", TTL: 60, Class: ClassINET,
				Data: &TXT{Strings: []string{"v=spf1 ip4:203.0.113.5 -all"}}},
		},
		{
			"example.com 60 IN MX 10 mail.example.com",
			RR{Name: "example.com", TTL: 60, Class: ClassINET,
				Data: &MX{Preference: 10, Host: "mail.example.com"}},
		},
		{
			"www.example.com 120 IN CNAME example.com",
			RR{Name: "www.example.com", TTL: 120, Class: ClassINET,
				Data: &CNAME{Target: "example.com"}},
		},
		{
			"example.com 3600 IN SOA ns1.example.com hostmaster.example.com 1 7200 3600 1209600 300",
			RR{Name: "example.com", TTL: 3600, Class: ClassINET,
				Data: &SOA{MName: "ns1.example.com", RName: "hostmaster.example.com",
					Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		},
		{
			"h.example.com 60 IN AAAA 2001:db8::5",
			RR{Name: "h.example.com", TTL: 60, Class: ClassINET, Data: &AAAA{Addr: mustAddr("2001:db8::5")}},
		},
		{
			"5.2.0.192.in-addr.arpa 60 IN PTR example.com",
			RR{Name: "5.2.0.192.in-addr.arpa", TTL: 60, Class: ClassINET, Data: &PTR{Target: "example.com"}},
		},
	}
	for _, c := range cases {
		got, err := ParseRR(c.line)
		if err != nil {
			t.Errorf("ParseRR(%q): %v", c.line, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseRR(%q) =\n %+v, want\n %+v", c.line, got, c.want)
		}
	}
}

func TestParseRRComments(t *testing.T) {
	rr, err := ParseRR("example.com 60 IN A 192.0.2.1 ; planted by attacker")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Data.(*A).Addr != mustAddr("192.0.2.1") {
		t.Error("comment stripped incorrectly")
	}
}

func TestParseRRQuotedTXT(t *testing.T) {
	rr, err := ParseRR(`example.com 60 IN TXT "first part" "second; not comment" ""`)
	if err != nil {
		t.Fatal(err)
	}
	txt := rr.Data.(*TXT)
	want := []string{"first part", "second; not comment", ""}
	if !reflect.DeepEqual(txt.Strings, want) {
		t.Errorf("TXT strings = %q, want %q", txt.Strings, want)
	}
}

func TestParseRRErrors(t *testing.T) {
	bad := []string{
		"",
		"example.com",
		"example.com 60 IN",
		"example.com 60 IN A",
		"example.com 60 IN A not-an-ip",
		"example.com 60 IN A 2001:db8::1",      // v6 in A
		"example.com 60 IN AAAA 192.0.2.1",     // v4 in AAAA
		"example.com 60 IN MX ten mail.e.com",  // bad preference
		"example.com 60 IN SOA ns1.e.com x 1",  // short SOA
		`example.com 60 IN TXT "unterminated`,  // bad quoting
		"bad!owner.com 60 IN A 192.0.2.1",      // invalid owner
		"example.com 60 IN BOGUS data",         // unknown type
		"example.com 60 IN NS bad!.hosting.io", // invalid target
	}
	for _, line := range bad {
		if _, err := ParseRR(line); err == nil {
			t.Errorf("ParseRR(%q): expected error", line)
		}
	}
}

func TestParseRRRoundtripViaString(t *testing.T) {
	lines := []string{
		"example.com 300 IN A 192.0.2.1",
		"example.com 60 IN NS ns1.hosting.net",
		"example.com 60 IN MX 10 mail.example.com",
	}
	for _, line := range lines {
		rr := MustParseRR(line)
		rr2, err := ParseRR(rr.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", rr.String(), err)
			continue
		}
		if !reflect.DeepEqual(rr, rr2) {
			t.Errorf("string roundtrip mismatch: %+v vs %+v", rr, rr2)
		}
	}
}

func TestMustParseRRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseRR did not panic on bad input")
		}
	}()
	MustParseRR("garbage")
}

// TestRDataStringForms pins the presentation of the payloads no record
// built from zone-file text exercises: AAAA and PTR (which ParseRR reads
// back), OPT and an RFC 3597 unknown type. Zone.Serialize and dnsq print
// records through these.
func TestRDataStringForms(t *testing.T) {
	cases := []struct {
		rr       RR
		want     string
		reparses bool
	}{
		{RR{Name: "example.com", TTL: 300, Class: ClassINET, Data: &AAAA{Addr: mustAddr("2001:db8::1")}},
			"example.com.\t300\tIN\tAAAA\t2001:db8::1", true},
		{RR{Name: "1.2.0.192.in-addr.arpa", TTL: 60, Class: ClassINET, Data: &PTR{Target: "host.example.com"}},
			"1.2.0.192.in-addr.arpa.\t60\tIN\tPTR\thost.example.com.", true},
		{RR{Name: Root, TTL: 0, Class: 1232, Data: &OPT{Options: []byte{0, 10, 0, 0}}},
			".\t0\tCLASS1232\tOPT\tOPT(4 bytes)", false},
		{RR{Name: Root, TTL: 0, Class: 4096, Data: &OPT{}},
			".\t0\tCLASS4096\tOPT\tOPT(0 bytes)", false},
		{RR{Name: "example.com", TTL: 30, Class: ClassINET, Data: &Unknown{T: 99, Data: []byte{0xde, 0xad, 0x00, 0x0f}}},
			"example.com.\t30\tIN\tTYPE99\t\\# 4 dead000f", false},
		{RR{Name: "example.com", TTL: 30, Class: ClassINET, Data: &Unknown{T: 65280}},
			"example.com.\t30\tIN\tTYPE65280\t\\# 0 ", false},
	}
	for _, c := range cases {
		got := c.rr.String()
		if got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
			continue
		}
		if !c.reparses {
			continue
		}
		back, err := ParseRR(got)
		if err != nil {
			t.Errorf("ParseRR(%q): %v", got, err)
		} else if !reflect.DeepEqual(back, c.rr) {
			t.Errorf("ParseRR(%q) = %+v, want %+v", got, back, c.rr)
		}
	}
}
