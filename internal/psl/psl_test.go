package psl

import (
	"testing"

	"repro/internal/dns"
)

func TestIsPublicSuffix(t *testing.T) {
	l := Default()
	for _, s := range []dns.Name{"com", "cn", "gov.cn", "edu.cn", "co.uk", "gov.kp"} {
		if !l.IsPublicSuffix(s) {
			t.Errorf("%s should be a public suffix", s)
		}
	}
	for _, s := range []dns.Name{"example.com", "google.com", "x.gov.cn", dns.Root} {
		if l.IsPublicSuffix(s) {
			t.Errorf("%s should not be a public suffix", s)
		}
	}
}

func TestPublicSuffixLongestWins(t *testing.T) {
	l := Default()
	ps, ok := l.PublicSuffix("www.beijing.gov.cn")
	if !ok || ps != "gov.cn" {
		t.Errorf("suffix = %v %v, want gov.cn", ps, ok)
	}
	ps, ok = l.PublicSuffix("example.cn")
	if !ok || ps != "cn" {
		t.Errorf("suffix = %v %v, want cn", ps, ok)
	}
	if _, ok := l.PublicSuffix("unknowntld-name"); ok {
		t.Error("unknown TLD matched a suffix")
	}
}

func TestRegistrableDomain(t *testing.T) {
	l := Default()
	cases := []struct {
		in   dns.Name
		want dns.Name
		ok   bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"a.b.c.example.co.uk", "example.co.uk", true},
		{"beijing.gov.cn", "beijing.gov.cn", true},
		{"gov.cn", "", false}, // an eTLD has no registrable domain
		{"com", "", false},
	}
	for _, c := range cases {
		got, ok := l.RegistrableDomain(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("RegistrableDomain(%s) = %v %v, want %v %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestClassify(t *testing.T) {
	l := Default()
	cases := []struct {
		in   dns.Name
		want Category
	}{
		{"gov.cn", CategoryETLD},
		{"com", CategoryETLD},
		{"example.com", CategorySLD},
		{"api.example.com", CategorySubdomain},
		{"a.b.example.co.uk", CategorySubdomain},
		{"noexist-tld", CategoryUnknown},
	}
	for _, c := range cases {
		if got := l.Classify(c.in); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryETLD.String() != "eTLD" || CategorySLD.String() != "SLD" ||
		CategorySubdomain.String() != "subdomain" || CategoryUnknown.String() != "unknown" {
		t.Error("category names wrong")
	}
}
