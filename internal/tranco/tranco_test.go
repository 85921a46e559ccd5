package tranco

import (
	"testing"

	"repro/internal/dns"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(3000, 7)
	b := Generate(3000, 7)
	if a.Len() != 3000 || b.Len() != 3000 {
		t.Fatalf("lengths %d %d", a.Len(), b.Len())
	}
	for i, e := range a.Top(3000) {
		if b.Top(3000)[i] != e {
			t.Fatalf("lists diverge at %d", i)
		}
	}
	c := Generate(3000, 8)
	diff := 0
	for i, e := range a.Top(3000) {
		if c.Top(3000)[i] != e {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical lists")
	}
}

func TestPinnedRanks(t *testing.T) {
	l := Generate(2500, 1)
	cases := map[string]int{
		"github.com":    30,
		"ibm.com":       125,
		"speedtest.net": 415,
		"gitlab.com":    527,
		"pastebin.com":  2033,
	}
	for d, want := range cases {
		got, ok := l.Rank(dns.CanonicalName(d))
		if !ok || got != want {
			t.Errorf("rank(%s) = %d %v, want %d", d, got, ok, want)
		}
	}
}

func TestHeadDomainsPresent(t *testing.T) {
	l := Generate(2000, 1)
	if r, ok := l.Rank("google.com"); !ok || r > 30 {
		t.Errorf("google.com rank = %d %v", r, ok)
	}
	if _, ok := l.Rank("windowsupdate.com"); !ok {
		t.Error("windowsupdate.com missing")
	}
}

func TestRanksAreSequentialAndUnique(t *testing.T) {
	l := Generate(500, 3)
	seen := map[string]bool{}
	for i, e := range l.Top(500) {
		if e.Rank != i+1 {
			t.Fatalf("rank %d at index %d", e.Rank, i)
		}
		if seen[string(e.Domain)] {
			t.Fatalf("duplicate domain %s", e.Domain)
		}
		seen[string(e.Domain)] = true
	}
}

func TestTopAndDomainsBounds(t *testing.T) {
	l := Generate(100, 1)
	if got := len(l.Top(500)); got != 100 {
		t.Errorf("Top(500) = %d entries", got)
	}
	if got := len(l.Domains(10)); got != 10 {
		t.Errorf("Domains(10) = %d", got)
	}
}
