package pdns

import (
	"testing"
	"time"

	"repro/internal/dns"
)

var (
	t2017 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	t2020 = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	t2022 = time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
)

func TestObserveAndSeen(t *testing.T) {
	s := NewStore()
	s.Observe("example.com", dns.TypeA, "192.0.2.1", t2020)
	if !s.Seen("example.com", dns.TypeA, "192.0.2.1", time.Time{}) {
		t.Error("observation not found")
	}
	if s.Seen("example.com", dns.TypeA, "192.0.2.2", time.Time{}) {
		t.Error("unobserved rdata found")
	}
	if s.Seen("example.com", dns.TypeTXT, "192.0.2.1", time.Time{}) {
		t.Error("wrong type matched")
	}
	if s.Seen("other.com", dns.TypeA, "192.0.2.1", time.Time{}) {
		t.Error("wrong domain matched")
	}
}

func TestSixYearWindow(t *testing.T) {
	s := NewStore()
	s.Observe("old.com", dns.TypeA, "192.0.2.1", t2017) // last seen 2017
	now := t2022
	cutoff := now.AddDate(-6, 0, 0) // 2016: 2017 is inside the window
	if !s.Seen("old.com", dns.TypeA, "192.0.2.1", cutoff) {
		t.Error("in-window observation excluded")
	}
	cutoff = now.AddDate(-2, 0, 0) // 2020: 2017 is outside
	if s.Seen("old.com", dns.TypeA, "192.0.2.1", cutoff) {
		t.Error("out-of-window observation included")
	}
}

func TestObserveMergesRanges(t *testing.T) {
	s := NewStore()
	s.Observe("example.com", dns.TypeA, "192.0.2.1", t2020)
	s.Observe("example.com", dns.TypeA, "192.0.2.1", t2017)
	s.Observe("example.com", dns.TypeA, "192.0.2.1", t2022)
	h := s.byDomain["example.com"]
	if len(h) != 1 {
		t.Fatalf("history entries = %d, want 1 (merged)", len(h))
	}
	if !h[0].FirstSeen.Equal(t2017) || !h[0].LastSeen.Equal(t2022) {
		t.Errorf("range = %v..%v", h[0].FirstSeen, h[0].LastSeen)
	}
}

func TestObserveRR(t *testing.T) {
	s := NewStore()
	s.ObserveRR(dns.MustParseRR("example.com 300 IN A 192.0.2.9"), t2020)
	if !s.Seen("example.com", dns.TypeA, "192.0.2.9", time.Time{}) {
		t.Error("Seen false for an observed record")
	}
	if s.Seen("example.com", dns.TypeA, "192.0.2.10", time.Time{}) {
		t.Error("Seen true for an unobserved record")
	}
}
