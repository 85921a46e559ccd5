// Package threatintel simulates the threat-intelligence surface the paper
// consumes from VirusTotal, QAX, and 360: per-vendor IP blacklists with
// descriptive tags, and an aggregator that answers "how many vendors flag
// this IP, and with which tags" — the inputs behind Figure 3(a), 3(b), and
// 3(d).
package threatintel

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// Tag is a vendor-assigned label for a malicious IP.
type Tag string

// The tag vocabulary of Figure 3(d).
const (
	TagTrojan  Tag = "Trojan"
	TagScanner Tag = "Scanner"
	TagMalware Tag = "Malware"
	TagC2      Tag = "C&C"
	TagBotnet  Tag = "Botnet"
	TagOther   Tag = "Other"
)

// AllTags is Figure 3(d)'s display order.
var AllTags = []Tag{TagTrojan, TagScanner, TagOther, TagMalware, TagC2, TagBotnet}

// Vendor is one security vendor's blacklist. It is filled while the world
// is built and read-only after that: lookups — 74 of them per aggregated
// verdict, from every determine and analyze worker at once — read a plain
// map without writing a shared word.
type Vendor struct {
	Name string

	listed map[netip.Addr][]Tag // a stored slice is never modified
}

// NewVendor creates an empty vendor feed.
func NewVendor(name string) *Vendor {
	return &Vendor{Name: name, listed: make(map[netip.Addr][]Tag)}
}

// Flag adds an IP to the vendor's blacklist with the given tags (idempotent
// per tag). It writes the list, so it must not run concurrently with any
// other method of the vendor or of an aggregator holding it.
func (v *Vendor) Flag(addr netip.Addr, tags ...Tag) {
	have := slices.Clone(v.listed[addr])
	for _, t := range tags {
		if !slices.Contains(have, t) {
			have = append(have, t)
		}
	}
	if len(have) == 0 {
		have = []Tag{TagOther}
	}
	v.listed[addr] = have
}

// Listed reports whether the vendor flags the IP, with its tags.
func (v *Vendor) Listed(addr netip.Addr) ([]Tag, bool) {
	tags, ok := v.listed[addr]
	if !ok {
		return nil, false
	}
	return slices.Clone(tags), true
}

// Size returns the number of IPs on the vendor's list.
func (v *Vendor) Size() int {
	return len(v.listed)
}

// Report is the aggregated intelligence for one IP.
type Report struct {
	Addr netip.Addr
	// Vendors that flag the IP, sorted by name.
	Vendors []string
	// Tags is the union of all vendors' tags, sorted.
	Tags []Tag
}

// Malicious reports whether any vendor flags the IP.
func (r Report) Malicious() bool { return len(r.Vendors) > 0 }

// VendorCount is the number of flagging vendors (the Figure 3(b) statistic).
func (r Report) VendorCount() int { return len(r.Vendors) }

// HasTag reports whether any vendor applied the tag.
func (r Report) HasTag(t Tag) bool {
	for _, have := range r.Tags {
		if have == t {
			return true
		}
	}
	return false
}

// Aggregator unions many vendor feeds, VirusTotal-style. The panel is fixed
// when the aggregator is built; only the feeds change.
type Aggregator struct {
	vendors []*Vendor
	byName  map[string]*Vendor
}

// NewAggregator creates an aggregator over vendors with the given names.
func NewAggregator(names []string) *Aggregator {
	a := &Aggregator{byName: make(map[string]*Vendor, len(names))}
	for _, n := range names {
		v := NewVendor(n)
		a.vendors = append(a.vendors, v)
		a.byName[n] = v
	}
	return a
}

// DefaultVendorNames builds the standard 74-vendor panel ("aggregated by
// VirusTotal" in the Specter case study). The first names mirror the feeds
// the paper consumed directly.
func DefaultVendorNames() []string {
	names := []string{"VirusTotal", "QAX", "360Security"}
	for i := len(names); i < 74; i++ {
		names = append(names, fmt.Sprintf("AVVendor%02d", i))
	}
	return names
}

// Vendor returns the feed with the given name.
func (a *Aggregator) Vendor(name string) (*Vendor, bool) {
	v, ok := a.byName[name]
	return v, ok
}

// Vendors returns all feeds.
func (a *Aggregator) Vendors() []*Vendor {
	out := make([]*Vendor, len(a.vendors))
	copy(out, a.vendors)
	return out
}

// VendorCount returns the panel size.
func (a *Aggregator) VendorCount() int {
	return len(a.vendors)
}

// Lookup aggregates all vendors' verdicts for an IP.
func (a *Aggregator) Lookup(addr netip.Addr) Report {
	rep := Report{Addr: addr}
	tagset := make(map[Tag]bool)
	for _, v := range a.vendors {
		if tags, ok := v.listed[addr]; ok {
			rep.Vendors = append(rep.Vendors, v.Name)
			for _, t := range tags {
				tagset[t] = true
			}
		}
	}
	sort.Strings(rep.Vendors)
	for t := range tagset {
		rep.Tags = append(rep.Tags, t)
	}
	sort.Slice(rep.Tags, func(i, j int) bool { return rep.Tags[i] < rep.Tags[j] })
	return rep
}

// IsMalicious reports whether any vendor flags the IP.
func (a *Aggregator) IsMalicious(addr netip.Addr) bool {
	for _, v := range a.vendors {
		if _, ok := v.listed[addr]; ok {
			return true
		}
	}
	return false
}
