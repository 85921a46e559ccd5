package core

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// journalTestConfig is a minimal plan for journal-only tests (no fabric).
func journalTestConfig(seed int64) *Config {
	return &Config{
		Seed:    seed,
		Targets: []dns.Name{"a.example", "b.example", "c.example", "d.example", "e.example"},
		Nameservers: []NameserverInfo{
			{Addr: netip.MustParseAddr("10.9.0.1"), Host: "ns1.test", Provider: "P0"},
		},
		OpenResolvers: []netip.Addr{netip.MustParseAddr("10.9.1.1")},
	}
}

// testResponse builds a NOERROR answer for one (name, type) probe in the
// wire form the journal records.
func testResponse(name dns.Name, qt dns.Type, rdata string) []byte {
	q := dns.NewQuery(7, name, qt)
	r := q.Reply()
	r.Answers = append(r.Answers, dns.RR{
		Name: name, Class: dns.ClassINET, TTL: 300,
		Data: &dns.A{Addr: netip.MustParseAddr(rdata)},
	})
	wire, err := r.Pack()
	if err != nil {
		panic(err)
	}
	return wire
}

// TestJournalRoundtrip reopens a journal of one segment: it resumes, and a
// segment it opens numbers past the replayed one. What the index holds is
// TestJournalIndexMatchesModel's.
func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := journalTestConfig(1)
	for open := 0; open < 2; open++ {
		j, err := OpenJournal(dir, cfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if j.Resumed() != (open == 1) {
			t.Fatalf("open %d: resumed %v", open, j.Resumed())
		}
		seg, err := j.newSegment()
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.failure(testPos(cfg, sweepURs, cfg.Nameservers[0].Addr, "a.example", dns.TypeA), dnsio.FailTimeout); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg-%05d.wal", open))); err != nil {
			t.Errorf("open %d did not number its segment %d: %v", open, open, err)
		}
	}
}

// TestJournalCheckpointDurability models a hard kill (no Close): only records
// flushed at checkpoint boundaries survive, and they replay cleanly — the
// unflushed tail simply never reached the file.
func TestJournalCheckpointDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := journalTestConfig(1)
	j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	server := cfg.Nameservers[0].Addr
	seg, err := j.newSegment()
	if err != nil {
		t.Fatal(err)
	}
	names := []dns.Name{"a.example", "b.example", "c.example", "d.example", "e.example"}
	for i, name := range names {
		resp := testResponse(name, dns.TypeA, netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}).String())
		if _, err := seg.answered(testPos(cfg, sweepURs, server, name, dns.TypeA), resp); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the 5th record is still buffered; checkpoints fired at 2 and 4.
	j2, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.ReplayedAnswered(); got != 4 {
		t.Errorf("ReplayedAnswered = %d, want 4 (two checkpoints of 2)", got)
	}
	if got := j2.ReplayStats().Torn; got != 0 {
		t.Errorf("ReplayStats().Torn = %d, want 0 — flushed prefix must be clean", got)
	}
	seg.f.Close()
}

// TestJournalAppendedBalances: with a hook, every record number from 1 to
// the total reaches it exactly once and in order from one writer.
// TestJournaledSweepMatchesOracle holds the pools' workers to the same
// without a gap or a repeat, and the count, hook or none, to what a reopen
// finds on disk.
func TestJournalAppendedBalances(t *testing.T) {
	t.Run("hook, one writer", func(t *testing.T) {
		cfg := journalTestConfig(1)
		j, err := OpenJournal(t.TempDir(), cfg, JournalOptions{CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		var seen []int64
		j.AppendHook = func(total int64) { seen = append(seen, total) }
		seg, err := j.newSegment()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := seg.failure(testPos(cfg, sweepURs, cfg.Nameservers[0].Addr, "a.example", dns.TypeA), dnsio.FailTimeout); err != nil {
				t.Fatal(err)
			}
			if len(seen) != i+1 || seen[i] != int64(i+1) || j.Appended() != int64(i+1) {
				t.Fatalf("after %d appends the hook has seen %v and Appended = %d", i+1, seen, j.Appended())
			}
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// testPos is the position the writer gives a probe of cfg's plan, found by
// key: the first listing of the server on the kind's side of the plan and of
// the name (the canary sits after the last target).
func testPos(cfg *Config, kind sweepKind, server netip.Addr, name dns.Name, qt dns.Type) probePos {
	qtypes := cfg.queryTypes()
	t := slices.Index(cfg.Targets, name)
	unit := slices.IndexFunc(cfg.Nameservers, func(ns NameserverInfo) bool { return ns.Addr == server })
	switch kind {
	case sweepCorrect:
		unit = slices.Index(cfg.OpenResolvers, server)
	case sweepProtective:
		t = len(cfg.Targets)
	}
	if unit >= 0 && kind != sweepCorrect {
		unit += len(cfg.OpenResolvers)
	}
	q := slices.Index(qtypes, qt)
	if unit < 0 || t < 0 || q < 0 {
		panic(fmt.Sprintf("testPos: %v %s %s %s is not in the plan", kind, server, name, qt))
	}
	return probePos{unit: cfg.firstUnit() + unit, slot: t*len(qtypes) + q}
}

// lookup reads the index at a position: wire and answered are the winning
// answer (wire nil for one journaled empty), class and failed the last
// failure record. A position outside the plan has neither.
func (ri *replayIndex) lookup(p probePos) (wire []byte, answered bool, class dnsio.FailClass, failed bool) {
	if ri == nil {
		return nil, false, 0, false
	}
	id := ri.posID(uint64(p.unit), uint64(p.slot))
	if id < 0 {
		return nil, false, 0, false
	}
	wire, answered = ri.answer(id)
	class, failed = ri.failed(id)
	return wire, answered, class, failed
}
