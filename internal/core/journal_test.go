package core

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := journalTestConfig(1)
	j, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Resumed() {
		t.Fatal("fresh journal claims to be resumed")
	}
	server := cfg.Nameservers[0].Addr
	seg, err := j.newSegment()
	if err != nil {
		t.Fatal(err)
	}
	resp := testResponse("a.example", dns.TypeA, "203.0.113.1")
	if err := seg.answered(testPos(cfg, sweepURs, server, "a.example", dns.TypeA), resp); err != nil {
		t.Fatal(err)
	}
	if err := seg.failure(testPos(cfg, sweepURs, server, "b.example", dns.TypeTXT), dnsio.FailTimeout); err != nil {
		t.Fatal(err)
	}
	if err := seg.answered(testPos(cfg, sweepProtective, server, cfg.CanaryName(), dns.TypeA),
		testResponse(cfg.CanaryName(), dns.TypeA, "203.0.113.9")); err != nil {
		t.Fatal(err)
	}
	if err := seg.empty(testPos(cfg, sweepCorrect, cfg.OpenResolvers[0], "c.example", dns.TypeTXT)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Appended(); got != 4 {
		t.Errorf("Appended = %d, want 4", got)
	}

	j2, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Resumed() {
		t.Fatal("reopened journal not resumed")
	}
	if got := j2.ReplayedAnswered(); got != 3 {
		t.Errorf("ReplayedAnswered = %d, want 3", got)
	}
	if got := j2.ReplayStats().Empty; got != 1 {
		t.Errorf("ReplayStats.Empty = %d, want 1", got)
	}
	if got := j2.ReplayedFailures(); got != 1 {
		t.Errorf("ReplayedFailures = %d, want 1", got)
	}
	if got := j2.ReplayStats().Torn; got != 0 {
		t.Errorf("ReplayStats().Torn = %d, want 0", got)
	}
	raw, ok, _, _ := j2.replay.lookup(testPos(cfg, sweepURs, server, "a.example", dns.TypeA))
	if !ok || raw == nil {
		t.Fatal("answered record missing after replay")
	}
	dec, err := dns.Unpack(raw)
	if err != nil {
		t.Fatalf("journaled response failed to unpack: %v", err)
	}
	if len(dec.Answers) != 1 || dec.Answers[0].Data.String() != "203.0.113.1" {
		t.Errorf("replayed response corrupted: %+v", dec.Answers)
	}
	if _, _, class, ok := j2.replay.lookup(testPos(cfg, sweepURs, server, "b.example", dns.TypeTXT)); !ok || class != dnsio.FailTimeout {
		t.Errorf("failure record = (%v, %v), want (timeout, true)", class, ok)
	}
	if wire, ok, _, _ := j2.replay.lookup(testPos(cfg, sweepCorrect, cfg.OpenResolvers[0], "c.example", dns.TypeTXT)); !ok || wire != nil {
		t.Errorf("empty record reads back as (%x, %v), want answered with no bytes", wire, ok)
	}
	// New segments must number past the replayed ones.
	seg2, err := j2.newSegment()
	if err != nil {
		t.Fatal(err)
	}
	seg2.Close()
	if _, err := os.Stat(filepath.Join(dir, "seg-00001.wal")); err != nil {
		t.Errorf("resumed journal did not continue segment numbering: %v", err)
	}
}

func TestJournalPlanMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, journalTestConfig(1), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(dir, journalTestConfig(2), JournalOptions{}); err == nil {
		t.Fatal("journal accepted a different sweep plan")
	}
}

// TestJournalTornTailDiscarded simulates a hard kill tearing the segment tail:
// the bytes after the last intact frame are garbage, and replay must keep the
// frames before the tear while discarding — never trusting — the torn one.
func TestJournalTornTailDiscarded(t *testing.T) {
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
	// Two checkpoint frames of two records each.
	for i, name := range []dns.Name{"a.example", "b.example", "c.example", "d.example"} {
		if err := seg.answered(testPos(cfg, sweepURs, server, name, dns.TypeA),
			testResponse(name, dns.TypeA, netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)}).String())); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-00000.wal")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes — mid-frame, so the second frame no longer
	// verifies; the first frame's two records must survive.
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.ReplayStats().Torn; got != 1 {
		t.Errorf("ReplayStats().Torn = %d, want 1", got)
	}
	if got := j2.ReplayedAnswered(); got != 2 {
		t.Errorf("intact records lost to the torn tail: replayed %d, want 2", got)
	}

	// Corrupt a payload byte inside the first frame: CRC must catch it and
	// replay must trust nothing from that segment from there on.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j3.ReplayedAnswered(); got != 0 {
		t.Errorf("CRC-corrupt segment still replayed %d records", got)
	}
	if got := j3.ReplayStats().Torn; got != 1 {
		t.Errorf("ReplayStats().Torn = %d, want 1", got)
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
		if err := seg.answered(testPos(cfg, sweepURs, server, name, dns.TypeA), resp); err != nil {
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

// TestJournalAnsweredFirstWins pins the replay merge rule: when the same probe
// key appears in multiple segments (main sweep in one run, re-queue in a
// later one), the first record in segment order is kept.
func TestJournalAnsweredFirstWins(t *testing.T) {
	dir := t.TempDir()
	cfg := journalTestConfig(1)
	j, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server := cfg.Nameservers[0].Addr
	for _, rdata := range []string{"203.0.113.1", "203.0.113.2"} {
		seg, err := j.newSegment()
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.answered(testPos(cfg, sweepURs, server, "a.example", dns.TypeA),
			testResponse("a.example", dns.TypeA, rdata)); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, _, _ := j2.replay.lookup(testPos(cfg, sweepURs, server, "a.example", dns.TypeA))
	resp, err := dns.Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Data.String(); got != "203.0.113.1" {
		t.Errorf("duplicate key resolved to %q, want the first segment's record", got)
	}
}

// TestJournalAppendedBalances: the record count is booked a checkpoint at a
// time unless a hook wants every record's number, and either way it must say,
// once the journal is closed, exactly what a reopen finds on disk. With a hook
// every number from 1 to the total is handed out exactly once — in order from
// one writer, and from the pools' workers at once without a gap or a repeat.
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
	for _, tc := range []struct {
		name        string
		parallelism int
		hook        bool
	}{
		{"no hook, 8 workers", 8, false},
		{"hook, 8 workers", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fx := newChaosFixture(t, 11)
			applyDeterministicFaults(fx) // failure records as well as answers
			fx.cfg.Parallelism = tc.parallelism
			j, err := OpenJournal(dir, fx.cfg, JournalOptions{CheckpointEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var seen []int64
			if tc.hook {
				j.AppendHook = func(total int64) {
					mu.Lock()
					seen = append(seen, total)
					mu.Unlock()
				}
			}
			fx.cfg.Journal = j
			if _, err := NewPipeline(fx.cfg).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			released := j.Appended() // every worker has flushed and parked its segment
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			n := j.Appended()
			if n == 0 || released != n {
				t.Errorf("Appended = %d when the sweep returned, %d after Close", released, n)
			}
			j2, err := OpenJournal(dir, fx.cfg, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := j2.ReplayStats().Records; int64(got) != n {
				t.Errorf("Appended = %d, a reopen indexes %d records", n, got)
			}
			if !tc.hook {
				return
			}
			if int64(len(seen)) != n {
				t.Fatalf("the hook ran %d times for %d records", len(seen), n)
			}
			count := make([]int, n+1)
			for _, total := range seen {
				if total < 1 || total > n {
					t.Fatalf("the hook saw total %d of %d", total, n)
				}
				count[total]++
			}
			for total := int64(1); total <= n; total++ {
				if count[total] != 1 {
					t.Errorf("total %d reached the hook %d times", total, count[total])
				}
			}
		})
	}
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
