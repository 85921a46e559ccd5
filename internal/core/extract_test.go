// Differential pin for extractIPs: the hand-rolled IPv4 scanner must agree
// exactly — match boundaries, non-overlapping resume position, dedup order —
// with the regex FindAllString loop it replaced.
package core

import (
	"math/rand"
	"net/netip"
	"reflect"
	"regexp"
	"testing"
)

// refIPv4 is the original candidate pattern, kept as the reference.
var refIPv4 = regexp.MustCompile(`\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})\b`)

func refExtractIPs(rdata string) []netip.Addr {
	var out []netip.Addr
	seen := make(map[netip.Addr]bool)
	for _, m := range refIPv4.FindAllString(rdata, -1) {
		a, err := netip.ParseAddr(m)
		if err != nil || !a.Is4() {
			continue
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func assertSameIPs(t *testing.T, rdata string) {
	t.Helper()
	got, want := extractIPs(rdata), refExtractIPs(rdata)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extractIPs(%q) = %v, regex reference = %v", rdata, got, want)
	}
}

func TestExtractIPsFixtures(t *testing.T) {
	fixtures := []string{
		`"v=spf1 ip4:93.0.0.1 ip4:93.0.0.2 ip4:93.0.0.1 -all"`,
		`"cmd=deadbeef no ips here"`,
		`"srv at 300.300.300.300"`, // every octet over 255: ParseAddr rejects
		`"rua=mailto:a@93.0.0.9"`,
		`1.2.3.4`,
		`1.2.3.4.5`, // greedy match stops at 1.2.3.4; the .5 tail has no quad
		`.1.2.3.4.`, // dots are not word bytes, boundaries hold
		`a1.2.3.4`,  // no \b between 'a' and '1': no match at all
		`1.2.3.4a`,  // trailing word byte kills the final \b
		`01.2.3.4`,  // matches the pattern, ParseAddr rejects leading zero
		`001.002.003.004`,
		`0.0.0.0`,
		`255.255.255.255`,
		`256.1.1.1`, // matches the pattern, ParseAddr rejects the octet
		`1..2.3.4`,
		`1.2.3.`,
		`1.2.3`,
		`1234.5.6.7`, // 4-digit run: no octet split satisfies the pattern
		`1.2.3.4567`,
		`x 10.0.0.1, 10.0.0.2;10.0.0.1`,
		`9.9.9.9_`, // '_' is a word byte: trailing \b fails
		`_9.9.9.9`,
		`1.2.3.41.2.3.4`, // non-overlapping: "1.2.3.41" consumed first
		`"93.0.0.1"`,
		``,
	}
	for _, s := range fixtures {
		assertSameIPs(t, s)
	}
}

// TestExtractIPsDifferential compares the scanner against the regex over a
// seeded corpus dense in digits, dots, and word-boundary edge bytes.
func TestExtractIPsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	alphabet := "0123456789...  ax_:"
	for i := 0; i < 30000; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		assertSameIPs(t, string(b))
	}
}
