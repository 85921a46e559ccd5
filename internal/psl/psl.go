// Package psl provides a public-suffix list in the spirit of
// publicsuffix.org, covering the suffixes the paper's Appendix C probes
// (multi-label eTLDs such as gov.cn, edu.cn, gov.kp) plus the generic TLDs
// the world generator registers. The hosting-provider policy engine uses it
// to decide whether a requested zone is an SLD, a subdomain, or an eTLD.
package psl

import (
	"strings"

	"repro/internal/dns"
)

// List is a set of public suffixes. It is built once by Default and only
// read after that.
type List struct {
	suffixes map[dns.Name]bool
}

// Default returns a list preloaded with the generic TLDs and the
// country-code suffixes used across the reproduction, including the
// government/education eTLDs named in Appendix C.
func Default() *List {
	l := &List{suffixes: make(map[dns.Name]bool)}
	for _, s := range []string{
		// generic TLDs
		"com", "net", "org", "io", "dev", "app", "info", "biz", "xyz",
		"online", "site", "store", "tech", "cloud", "ai",
		// country codes
		"cn", "us", "uk", "de", "fr", "jp", "kr", "ru", "br", "in",
		"it", "nl", "se", "au", "ca", "es", "ch", "pl", "tr", "mx",
		"id", "vn", "sa", "za", "eg", "na", "gd", "fm", "kp", "ir",
		// multi-label public suffixes (registry-operated eTLDs)
		"gov.cn", "edu.cn", "com.cn", "net.cn", "org.cn", "ac.cn",
		"co.uk", "org.uk", "gov.uk", "ac.uk",
		"com.br", "gov.br", "co.jp", "go.jp", "ac.jp", "co.kr", "go.kr",
		"gov.kp", "edu.kp", "gov.gd", "edu.fm", "gov.in", "ac.in",
		"com.au", "gov.au", "edu.au", "co.za", "gov.za",
		"com.tr", "gov.tr", "com.mx", "gob.mx",
	} {
		l.suffixes[dns.MustParseName(s)] = true
	}
	return l
}

// IsPublicSuffix reports whether the name itself is a public suffix (an
// "eTLD" in the paper's terminology, which includes plain TLDs).
func (l *List) IsPublicSuffix(name dns.Name) bool {
	if name == dns.Root {
		return false
	}
	return l.suffixes[name]
}

// PublicSuffix returns the longest public suffix of name and whether one was
// found.
func (l *List) PublicSuffix(name dns.Name) (dns.Name, bool) {
	// Walking from the most specific name upward, the first registered
	// suffix encountered is the longest one.
	for n := name; n != dns.Root; n = n.Parent() {
		if l.suffixes[n] {
			return n, true
		}
	}
	return dns.Root, false
}

// RegistrableDomain returns the "SLD" in the paper's terminology: the public
// suffix plus one label. It returns false when the name is itself a public
// suffix or no suffix matches.
func (l *List) RegistrableDomain(name dns.Name) (dns.Name, bool) {
	suffix, ok := l.PublicSuffix(name)
	if !ok || name == suffix {
		return dns.Root, false
	}
	// Walk down from the suffix by one label.
	labels := name.Labels()
	suffixLabels := suffix.CountLabels()
	idx := len(labels) - suffixLabels - 1
	if idx < 0 {
		return dns.Root, false
	}
	return dns.Name(strings.Join(labels[idx:], ".")), true
}

// Classify names the paper's domain categories for a hosting request.
type Category int

// Domain categories from Appendix C's "supported domain" axis.
const (
	CategoryETLD Category = iota
	CategorySLD
	CategorySubdomain
	CategoryUnknown
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CategoryETLD:
		return "eTLD"
	case CategorySLD:
		return "SLD"
	case CategorySubdomain:
		return "subdomain"
	}
	return "unknown"
}

// Classify determines whether name is an eTLD, an SLD, or a subdomain of an
// SLD under this list.
func (l *List) Classify(name dns.Name) Category {
	if l.IsPublicSuffix(name) {
		return CategoryETLD
	}
	reg, ok := l.RegistrableDomain(name)
	if !ok {
		return CategoryUnknown
	}
	if reg == name {
		return CategorySLD
	}
	return CategorySubdomain
}
