package urwatch

import (
	"fmt"
	"net/netip"
	"strings"
)

// ACL is a source-IP allowlist: an immutable set of CIDR prefixes checked on
// the serve path. The DNSBL front-end uses two of them with different
// fail-modes:
//
//   - the transfer ACL gates AXFR/IXFR/NOTIFY, and a nil ACL means
//     *disabled* — zone transfers hand out the entire feed in one exchange,
//     so mirroring is opt-in; and
//   - the zone ACL gates ordinary DNSBL queries, and a nil ACL means *open*
//     — the feed is meant to be queried.
//
// Denied clients get REFUSED, the standard DNS signal for "ask someone who
// trusts you". Lookups are a linear scan over the prefix list; allowlists
// are operator-written and short, so a scan beats an interval tree until
// well past any realistic size.
type ACL struct {
	prefixes []netip.Prefix
	src      string
}

// ParseACL builds an ACL from a comma-separated list of CIDR prefixes or
// bare addresses ("127.0.0.0/8, 10.2.3.4, ::1/128"). A blank string returns
// nil — the caller's nil-policy applies. A list that names no prefix (",")
// is an error, not nil: nil opens the zone and disables transfers, the
// opposite of what an operator writing an allowlist asks for.
func ParseACL(s string) (*ACL, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	a := &ACL{src: s}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "/") {
			addr, err := netip.ParseAddr(part)
			if err != nil {
				return nil, fmt.Errorf("urwatch: bad ACL entry %q: %w", part, err)
			}
			a.prefixes = append(a.prefixes, netip.PrefixFrom(addr, addr.BitLen()))
			continue
		}
		p, err := netip.ParsePrefix(part)
		if err != nil {
			return nil, fmt.Errorf("urwatch: bad ACL entry %q: %w", part, err)
		}
		a.prefixes = append(a.prefixes, p.Masked())
	}
	if len(a.prefixes) == 0 {
		return nil, fmt.Errorf("urwatch: ACL %q names no prefix", s)
	}
	return a, nil
}

// Contains reports whether addr matches any prefix. A nil ACL contains
// nothing; callers encode their nil-policy (open vs disabled) themselves.
// 4-in-6 mapped addresses are unmapped first so one v4 prefix covers both
// socket families.
func (a *ACL) Contains(addr netip.Addr) bool {
	if a == nil {
		return false
	}
	addr = addr.Unmap()
	for _, p := range a.prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// String returns the ACL's source form ("" for nil).
func (a *ACL) String() string {
	if a == nil {
		return ""
	}
	return a.src
}
