// Package zone implements the authoritative zone data structure shared by
// every nameserver in the reproduction: an RRset store keyed by owner name
// and type, with RFC 1034 lookup semantics (exact match, CNAME, wildcard
// synthesis, delegation cuts, empty non-terminals) and a master-file style
// parser/serializer.
//
// A zone also keeps a bounded memo of the replies its servers packed from it
// (Memoize, Memoized), which every mutation clears: a zone is shared by its
// whole nameserver set, so one server's packed answer serves them all.
package zone

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dns"
)

// Result classifies the outcome of an authoritative lookup.
type Result int

// Lookup outcomes.
const (
	// Hit: records of the requested type exist at the name.
	Hit Result = iota
	// CNAMEHit: the name owns a CNAME (and the requested type is not CNAME).
	CNAMEHit
	// NoData: the name exists (possibly as an empty non-terminal) but has no
	// records of the requested type.
	NoData
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// Delegation: the lookup crossed a zone cut; the returned records are the
	// delegation NS set.
	Delegation
	// OutOfZone: the name is not within this zone's origin.
	OutOfZone
)

// String names the result for logs and tests.
func (r Result) String() string {
	switch r {
	case Hit:
		return "Hit"
	case CNAMEHit:
		return "CNAME"
	case NoData:
		return "NoData"
	case NXDomain:
		return "NXDomain"
	case Delegation:
		return "Delegation"
	case OutOfZone:
		return "OutOfZone"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Zone is a mutable collection of RRsets under one origin. It is safe for
// concurrent use: hosting-provider portals mutate zones while nameservers
// serve them.
type Zone struct {
	origin dns.Name

	mu     sync.RWMutex
	rrsets map[dns.Name]map[dns.Type][]dns.RR

	// gen counts the mutations, each booked under mu; memo holds the replies
	// memoized at one generation, nil until the first.
	gen  atomic.Uint64
	memo atomic.Pointer[replyMemo]
}

// New creates an empty zone rooted at origin.
func New(origin dns.Name) *Zone {
	return &Zone{
		origin: origin,
		rrsets: make(map[dns.Name]map[dns.Type][]dns.RR),
	}
}

// Origin returns the zone apex name.
func (z *Zone) Origin() dns.Name { return z.origin }

// Add inserts a record. The owner must be at or below the origin.
func (z *Zone) Add(rr dns.RR) error {
	if !rr.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.origin.String(), rr.Name.String())
	}
	if rr.Data == nil {
		return fmt.Errorf("zone %s: record %s has no payload", z.origin.String(), rr.Name.String())
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.rrsets[rr.Name]
	if !ok {
		byType = make(map[dns.Type][]dns.RR)
		z.rrsets[rr.Name] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
	z.gen.Add(1)
	return nil
}

// MustAdd adds a class-IN record built in code; it panics if the owner is
// outside the zone or data is nil. World generation builds every record
// this way, with no text formatted or parsed; the caller gives canonical
// names (dns.ParseName's form).
func (z *Zone) MustAdd(name dns.Name, ttl uint32, data dns.RData) {
	if err := z.Add(dns.RR{Name: name, Class: dns.ClassINET, TTL: ttl, Data: data}); err != nil {
		panic(err)
	}
}

// StandardSOA is the SOA rdata of every zone the simulated Internet builds:
// serial 1, refresh 7200, retry 3600, expire 1209600 and minimum 300.
func StandardSOA(mname, rname dns.Name) *dns.SOA {
	return &dns.SOA{MName: mname, RName: rname, Serial: 1,
		Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}
}

// AddRR parses a presentation-format record and adds it.
func (z *Zone) AddRR(line string) error {
	rr, err := dns.ParseRR(line)
	if err != nil {
		return err
	}
	return z.Add(rr)
}

// MustAddRR is AddRR for static zone content; it panics on error.
func (z *Zone) MustAddRR(line string) {
	if err := z.AddRR(line); err != nil {
		panic(err)
	}
}

// RemoveRRset deletes all records of the given type at a name.
func (z *Zone) RemoveRRset(name dns.Name, t dns.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if byType, ok := z.rrsets[name]; ok {
		delete(byType, t)
		if len(byType) == 0 {
			delete(z.rrsets, name)
		}
	}
	z.gen.Add(1)
}

// RRset returns the records of the given type at exactly name (no wildcard or
// delegation processing).
func (z *Zone) RRset(name dns.Name, t dns.Type) []dns.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	byType, ok := z.rrsets[name]
	if !ok {
		return nil
	}
	rrs := byType[t]
	out := make([]dns.RR, len(rrs))
	copy(out, rrs)
	return out
}

// SOA returns the zone's apex SOA record, if present.
func (z *Zone) SOA() (dns.RR, bool) {
	rrs := z.RRset(z.origin, dns.TypeSOA)
	if len(rrs) == 0 {
		return dns.RR{}, false
	}
	return rrs[0], true
}

// Lookup resolves (name, type) with authoritative semantics.
//
// The second return value explains the outcome; the records returned are the
// matched RRset (Hit), the CNAME RRset (CNAMEHit), the delegation NS set
// (Delegation), or nil.
func (z *Zone) Lookup(name dns.Name, t dns.Type) ([]dns.RR, Result) {
	if !name.IsSubdomainOf(z.origin) {
		return nil, OutOfZone
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Walk from just below the apex toward the query name looking for a zone
	// cut (an NS RRset strictly between apex and the owner).
	if cut, ok := z.findCutLocked(name); ok && cut != name {
		ns := z.rrsets[cut][dns.TypeNS]
		out := make([]dns.RR, len(ns))
		copy(out, ns)
		return out, Delegation
	}

	if byType, ok := z.rrsets[name]; ok {
		// A cut exactly at the name: below the apex an NS RRset marks a
		// delegation; the parent answers with a referral, never
		// authoritatively — even for NS queries.
		if name != z.origin {
			if ns, hasNS := byType[dns.TypeNS]; hasNS {
				out := make([]dns.RR, len(ns))
				copy(out, ns)
				return out, Delegation
			}
		}
		if rrs, ok := byType[t]; ok && len(rrs) > 0 {
			out := make([]dns.RR, len(rrs))
			copy(out, rrs)
			return out, Hit
		}
		if cname, ok := byType[dns.TypeCNAME]; ok && t != dns.TypeCNAME && len(cname) > 0 {
			out := make([]dns.RR, len(cname))
			copy(out, cname)
			return out, CNAMEHit
		}
		return nil, NoData
	}

	// Wildcard synthesis: the closest encloser's *-child, per RFC 1034 §4.3.2.
	for anc := name.Parent(); ; anc = anc.Parent() {
		if !anc.IsSubdomainOf(z.origin) {
			break
		}
		// If the ancestor itself exists, name could still match a wildcard at
		// that ancestor; check before giving up.
		wc := anc.Child("*")
		if byType, ok := z.rrsets[wc]; ok {
			if rrs, ok := byType[t]; ok && len(rrs) > 0 {
				out := make([]dns.RR, 0, len(rrs))
				for _, rr := range rrs {
					syn := rr
					syn.Name = name
					out = append(out, syn)
				}
				return out, Hit
			}
			if cname, ok := byType[dns.TypeCNAME]; ok && t != dns.TypeCNAME && len(cname) > 0 {
				out := make([]dns.RR, 0, len(cname))
				for _, rr := range cname {
					syn := rr
					syn.Name = name
					out = append(out, syn)
				}
				return out, CNAMEHit
			}
			return nil, NoData
		}
		// Wildcards only match at the closest existing encloser: if this
		// ancestor exists, stop searching higher.
		if _, ok := z.rrsets[anc]; ok {
			break
		}
		if anc == z.origin {
			break
		}
	}

	// Empty non-terminal: some stored name is beneath the queried name.
	for stored := range z.rrsets {
		if stored.IsProperSubdomainOf(name) {
			return nil, NoData
		}
	}
	return nil, NXDomain
}

// findCutLocked returns the highest delegation point at or above name
// (strictly below the apex), if any.
func (z *Zone) findCutLocked(name dns.Name) (dns.Name, bool) {
	// Collect ancestors from apex-child down to name.
	var chain []dns.Name
	for n := name; n != z.origin; n = n.Parent() {
		chain = append(chain, n)
		if n == dns.Root {
			break
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if byType, ok := z.rrsets[n]; ok {
			if _, hasNS := byType[dns.TypeNS]; hasNS {
				return n, true
			}
		}
	}
	return "", false
}

// Records returns every record in the zone, sorted by owner then type; the
// records of one RRset keep the order they were added in, so a zone's
// listing (and Serialize) is the same on every call.
func (z *Zone) Records() []dns.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dns.RR
	for _, byType := range z.rrsets {
		for _, rrs := range byType {
			out = append(out, rrs...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Type() < out[j].Type()
	})
	return out
}

// Size returns the number of records in the zone.
func (z *Zone) Size() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, byType := range z.rrsets {
		for _, rrs := range byType {
			n += len(rrs)
		}
	}
	return n
}

// Serialize renders the zone in master-file style, one record per line.
func (z *Zone) Serialize() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; zone %s (%d records)\n", z.origin.String(), z.Size())
	for _, rr := range z.Records() {
		sb.WriteString(rr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse builds a zone from master-file style text. Blank lines and
// ';'-comment lines are skipped. A subset of RFC 1035 directives is
// honoured:
//
//   - $ORIGIN <name> switches the origin that relative owner names are
//     appended to (the zone's apex stays the origin passed in).
//   - $TTL <seconds> sets the default TTL for records that omit one.
//   - An owner of "@" means the current origin.
//   - A bare-label owner ("www") is relative to the current origin.
//
// For compatibility with the rest of the reproduction, multi-label owners
// are treated as absolute whether or not they carry the trailing dot.
func Parse(origin dns.Name, text string) (*Zone, error) {
	z := New(origin)
	curOrigin := origin
	defaultTTL := uint32(0)

	fail := func(i int, err error) error {
		return fmt.Errorf("zone %s line %d: %w", origin.String(), i+1, err)
	}
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "$") {
			fields := strings.Fields(line)
			switch strings.ToUpper(fields[0]) {
			case "$ORIGIN":
				if len(fields) < 2 {
					return nil, fail(i, fmt.Errorf("$ORIGIN needs a name"))
				}
				n, err := dns.ParseName(fields[1])
				if err != nil {
					return nil, fail(i, err)
				}
				curOrigin = n
			case "$TTL":
				if len(fields) < 2 {
					return nil, fail(i, fmt.Errorf("$TTL needs a value"))
				}
				ttl, err := strconv.ParseUint(fields[1], 10, 32)
				if err != nil {
					return nil, fail(i, fmt.Errorf("bad $TTL %q", fields[1]))
				}
				defaultTTL = uint32(ttl)
			default:
				return nil, fail(i, fmt.Errorf("unsupported directive %s", fields[0]))
			}
			continue
		}
		line, hadTTL, err := normalizeOwner(line, curOrigin)
		if err != nil {
			return nil, fail(i, err)
		}
		rr, err := dns.ParseRR(line)
		if err != nil {
			return nil, fail(i, err)
		}
		if !hadTTL && defaultTTL > 0 {
			rr.TTL = defaultTTL
		}
		if err := z.Add(rr); err != nil {
			return nil, fail(i, err)
		}
	}
	return z, nil
}

// normalizeOwner rewrites the record line's owner field against the current
// origin and reports whether an explicit TTL field follows the owner.
func normalizeOwner(line string, origin dns.Name) (string, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", false, fmt.Errorf("record %q has too few fields", line)
	}
	owner := fields[0]
	switch {
	case owner == "@":
		owner = string(origin)
		if owner == "" {
			owner = "."
		}
	case strings.HasSuffix(owner, "."):
		// Absolute; keep as-is (ParseRR strips the dot).
	case !strings.Contains(owner, "."):
		// A bare label is relative to the current origin. Multi-label
		// owners without a trailing dot are treated as absolute for
		// compatibility with the reproduction's existing zone texts.
		if origin != dns.Root {
			owner = owner + "." + string(origin)
		}
	}
	fields[0] = owner
	_, err := strconv.ParseUint(fields[1], 10, 32)
	hadTTL := err == nil
	return strings.Join(fields, " "), hadTTL, nil
}
