package core

import (
	"net/netip"
	"regexp"
	"time"

	"repro/internal/dns"
)

// Determiner implements §4.2: excluding correct and protective records from
// the collected URs, leaving the suspicious set.
type Determiner struct {
	cfg        *Config
	correct    *CorrectDB
	protective *ProtectiveDB

	// pdnsCutoff is the six-year passive-DNS window anchor, hoisted out of
	// the per-record path (AddDate walks the calendar on every call).
	pdnsCutoff time.Time

	// Condition toggles for the E14 ablation: all enabled by default.
	UseIPSubset   bool
	UseASSubset   bool
	UseGeoSubset  bool
	UseCertSubset bool
	UsePDNS       bool
	UseHTTPFilter bool
}

// NewDeterminer builds a determiner over the collected databases.
func NewDeterminer(cfg *Config, correct *CorrectDB, protective *ProtectiveDB) *Determiner {
	return &Determiner{
		cfg: cfg, correct: correct, protective: protective,
		pdnsCutoff:  cfg.Now.AddDate(-6, 0, 0),
		UseIPSubset: true, UseASSubset: true, UseGeoSubset: true,
		UseCertSubset: true, UsePDNS: true, UseHTTPFilter: true,
	}
}

// pdnsMemoKey caches one (domain, type, rdata) PDNS verdict. With interned
// rdata strings the map lookup compares pointers before bytes.
type pdnsMemoKey struct {
	domain dns.Name
	t      dns.Type
	rdata  string
}

// detMemo is one classification worker's private cache. A sweep produces the
// same rdata on every server of a provider, so PDNS scans and rdata
// derivations repeat heavily; the memo makes the repeats map-hit-only without
// any cross-worker locking.
//
// Memos are created fresh per Determine invocation, per pipeline worker and
// per FalseNegativeCheck, never stored on the Determiner: experiments swap
// the underlying databases on a shared determiner (FalseNegativeCheck),
// which a persistent cache would silently ignore.
type detMemo struct {
	pdns map[pdnsMemoKey]bool
	// rdata holds each distinct rdata's enrichment facts (memo.go).
	rdata map[rdataKey]rdataFacts
}

func newDetMemo() *detMemo {
	return &detMemo{
		pdns:  make(map[pdnsMemoKey]bool, 64),
		rdata: make(map[rdataKey]rdataFacts, 64),
	}
}

// lookupProfile returns a domain's legitimate profile, nil when it has none.
func (d *Determiner) lookupProfile(domain dns.Name) *DomainProfile {
	if d.correct == nil {
		return nil
	}
	p, _ := d.correct.Lookup(domain)
	return p
}

// pdnsSeen resolves one passive-DNS verdict through the memo.
func (d *Determiner) pdnsSeen(m *detMemo, domain dns.Name, t dns.Type, rdata string) bool {
	if !d.UsePDNS || d.cfg.PDNS == nil {
		return false
	}
	k := pdnsMemoKey{domain: domain, t: t, rdata: rdata}
	if v, ok := m.pdns[k]; ok {
		return v
	}
	v := d.cfg.PDNS.Seen(domain, t, rdata, d.pdnsCutoff)
	m.pdns[k] = v
	return v
}

// Determine labels every UR as protective, correct (with a reason), or
// leaves it unknown (suspicious). It returns the suspicious subset.
func (d *Determiner) Determine(urs []*UR) []*UR {
	var suspicious []*UR
	memo := newDetMemo()
	for _, u := range urs {
		d.classifyMemo(memo, u)
		if u.Category == CategoryUnknown {
			suspicious = append(suspicious, u)
		}
	}
	return suspicious
}

// classifyMemo classifies one UR, routing profile and PDNS lookups through
// the worker memo m. Safe for concurrent use across distinct memos: the
// databases are read-only here and each record is owned by one worker.
func (d *Determiner) classifyMemo(m *detMemo, u *UR) {
	// Protective records match exactly by (server, type, rdata).
	if d.protective != nil && d.protective.Match(u.Server.Addr, u.Type, u.RData) {
		u.Category = CategoryProtective
		u.Reason = ReasonProtective
		return
	}
	switch u.Type {
	case dns.TypeA:
		if reason, ok := d.correctA(m, u); ok {
			u.Category = CategoryCorrect
			u.Reason = reason
			return
		}
	case dns.TypeTXT:
		if reason, ok := d.correctTXT(m, u); ok {
			u.Category = CategoryCorrect
			u.Reason = reason
			return
		}
	default:
		// Extension types (MX, ...): exact match against the legitimate
		// profile or passive DNS, mirroring the TXT rule.
		if reason, ok := d.correctOther(m, u); ok {
			u.Category = CategoryCorrect
			u.Reason = reason
			return
		}
	}
	u.Category = CategoryUnknown
}

// correctA applies the Appendix B conditions: the record is correct when ANY
// of the subset conditions holds against the domain's legitimate profile,
// when passive DNS saw it within the window, or when the HTTP content says
// parked/redirect.
func (d *Determiner) correctA(m *detMemo, u *UR) (CorrectReason, bool) {
	profile := d.lookupProfile(u.Domain)
	addr, ok := m.parseA(u.RData)
	if !ok {
		return ReasonNone, false
	}
	e := u.Enrichment()
	if profile != nil {
		if d.UseIPSubset && profile.IPs[addr] {
			return ReasonIPSubset, true
		}
		if d.UseASSubset && e.ASN != 0 && profile.ASNs[e.ASN] {
			return ReasonASSubset, true
		}
		if d.UseGeoSubset && e.Country != "" && len(profile.Countries) > 0 &&
			profile.Countries[e.Country] && d.onlyCountrySignal(profile) {
			return ReasonGeoSubset, true
		}
		if d.UseCertSubset && e.HTTP.Cert != nil && profile.CertFPs[e.HTTP.Cert.Fingerprint] {
			return ReasonCertSubset, true
		}
	}
	if d.pdnsSeen(m, u.Domain, dns.TypeA, u.RData) {
		return ReasonPDNS, true
	}
	if d.UseHTTPFilter && e.HTTP.Reachable {
		if asciiContainsFold(e.HTTP.Body, "parked") || asciiContainsFold(e.HTTP.Body, "parking") {
			return ReasonParked, true
		}
		if e.HTTP.StatusCode/100 == 3 || asciiContainsFold(e.HTTP.Body, "redirecting") {
			return ReasonRedirect, true
		}
	}
	return ReasonNone, false
}

// onlyCountrySignal guards the geo condition: country containment alone is a
// weak signal when the legitimate set spans many countries (a CDN), where it
// is meaningful; for single-country sites it would whitelist any co-located
// attacker, so we require a multi-country (geo-distributed) profile.
func (d *Determiner) onlyCountrySignal(p *DomainProfile) bool {
	return len(p.Countries) >= 3
}

// correctTXT excludes TXT URs that exactly match a legitimately observed
// record or its PDNS history.
func (d *Determiner) correctTXT(m *detMemo, u *UR) (CorrectReason, bool) {
	if profile := d.lookupProfile(u.Domain); profile != nil && profile.TXTs[u.RData] {
		return ReasonTXTMatch, true
	}
	if d.pdnsSeen(m, u.Domain, dns.TypeTXT, u.RData) {
		return ReasonPDNS, true
	}
	return ReasonNone, false
}

// correctOther excludes extension-type URs that exactly match a
// legitimately observed record or history.
func (d *Determiner) correctOther(m *detMemo, u *UR) (CorrectReason, bool) {
	if profile := d.lookupProfile(u.Domain); profile != nil && profile.HasOther(u.Type, u.RData) {
		return ReasonTXTMatch, true
	}
	if d.pdnsSeen(m, u.Domain, u.Type, u.RData) {
		return ReasonPDNS, true
	}
	return ReasonNone, false
}

// --- TXT classification and IP extraction -------------------------------

// reVerif stays a regex: it is an alternation over mid-string keywords with
// no cheap anchor, and it runs only on records that fell through the SPF /
// DMARC / DKIM checks.
var reVerif = regexp.MustCompile(`(?i)(site-verification|domain-verification|verification=|_verify)`)

// asciiLower folds one ASCII byte to lower case.
func asciiLower(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// isWordByte mirrors RE2's ASCII \b word class: [0-9A-Za-z_].
func isWordByte(b byte) bool {
	return '0' <= b && b <= '9' || 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' || b == '_'
}

// asciiContainsFold reports whether s contains sub under ASCII
// case-folding, without allocating. Replaces strings.Contains(
// strings.ToLower(s), sub), whose ToLower copies the full body per call.
func asciiContainsFold(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	c0 := asciiLower(sub[0])
	for i := 0; i+len(sub) <= len(s); i++ {
		if asciiLower(s[i]) != c0 {
			continue
		}
		j := 1
		for ; j < len(sub); j++ {
			if asciiLower(s[i+j]) != asciiLower(sub[j]) {
				break
			}
		}
		if j == len(sub) {
			return true
		}
	}
	return false
}

// hasTXTPrefixFold replicates the anchored `(?i)^"?v=...\b` TXT checks: an
// optional leading quote, a case-folded prefix match, and a word boundary
// after the prefix. prefix must be lower-case ASCII.
func hasTXTPrefixFold(s, prefix string) bool {
	if len(s) > 0 && s[0] == '"' {
		s = s[1:]
	}
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if asciiLower(s[i]) != prefix[i] {
			return false
		}
	}
	return len(s) == len(prefix) || !isWordByte(s[len(prefix)])
}

// containsFoldWord replicates `(?i)\bword\b` for a lower-case ASCII word
// whose first and last bytes are word bytes (v=dkim1).
func containsFoldWord(s, word string) bool {
	n := len(word)
	for i := 0; i+n <= len(s); i++ {
		if i > 0 && isWordByte(s[i-1]) {
			continue
		}
		j := 0
		for ; j < n; j++ {
			if asciiLower(s[i+j]) != word[j] {
				break
			}
		}
		if j == n && (i+n == len(s) || !isWordByte(s[i+n])) {
			return true
		}
	}
	return false
}

// ClassifyTXT buckets TXT rdata into the known categories of §4.2. The SPF /
// DMARC / DKIM checks are direct byte scans equivalent to the anchored
// regexes they replaced (`^"?v=spf1\b`, `^"?v=dmarc1\b`, `\bv=dkim1\b`);
// classify_test.go pins the equivalence over the fixture corpus.
func ClassifyTXT(rdata string) TXTCategory {
	switch {
	case hasTXTPrefixFold(rdata, "v=spf1"):
		return TXTSPF
	case hasTXTPrefixFold(rdata, "v=dmarc1"):
		return TXTDMARC
	case containsFoldWord(rdata, "v=dkim1"):
		return TXTDKIM
	case reVerif.MatchString(rdata):
		return TXTVerification
	default:
		return TXTOther
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// matchIPv4At matches `(\d{1,3}\.){3}\d{1,3}\b` at position i (the caller
// has already checked the leading word boundary and first digit), returning
// the exclusive end offset or -1. Greedy with no backtracking, which is
// exactly the regex's effective behavior: every group byte is a digit, so
// shrinking a group can never expose the '.' or boundary the pattern needs
// next.
func matchIPv4At(s string, i int) int {
	p := i
	for g := 0; g < 4; g++ {
		if g > 0 {
			if p >= len(s) || s[p] != '.' {
				return -1
			}
			p++
		}
		n := 0
		for n < 3 && p < len(s) && isDigit(s[p]) {
			p++
			n++
		}
		if n == 0 {
			return -1
		}
	}
	if p < len(s) && isWordByte(s[p]) {
		return -1 // trailing \b
	}
	return p
}

// extractIPs pulls every plausible IPv4 address out of TXT rdata — SPF ip4:
// mechanisms, bare addresses in encoded commands, DMARC rua hosts, etc.
// A direct scanner equivalent to the old
// `\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})\b` FindAllString loop
// (extract_test.go pins the equivalence): candidates that fail ParseAddr —
// octets over 255, leading zeros — are skipped, and scanning resumes after
// the match like the regex's non-overlapping walk.
func extractIPs(rdata string) []netip.Addr {
	var out []netip.Addr
	var seen map[netip.Addr]bool
	for i := 0; i < len(rdata); {
		if !isDigit(rdata[i]) || (i > 0 && isWordByte(rdata[i-1])) {
			i++
			continue
		}
		end := matchIPv4At(rdata, i)
		if end < 0 {
			i++
			continue
		}
		if a, err := netip.ParseAddr(rdata[i:end]); err == nil && a.Is4() {
			if seen == nil {
				seen = make(map[netip.Addr]bool, 4)
			}
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		i = end
	}
	return out
}
