package urwatch

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
)

// snapTestGen seals a generation with every field populated: multi-domain
// verdicts, IPv6, shared IPs, provider spread, sweep books.
func snapTestGen(t testing.TB, seq uint64) *Generation {
	grid := parityGrid()
	b := NewBuilder()
	for _, v := range grid[2] { // base + the multi-IP extra
		b.Add(v)
	}
	g := b.Seal(seq, time.Unix(1700000000+int64(seq), 123456789))
	g.Queries = 9876
	g.Coverage = &core.Coverage{
		Attempted: 120, Answered: 118, RetriedRecovered: 3, BreakerTrips: 1,
		FailedByClass: map[string]int64{"timeout": 2},
	}
	return g
}

// sameGeneration compares two generations field by field, resolving string
// references so different tables with identical content compare equal.
func sameGeneration(t *testing.T, a, b *Generation) {
	t.Helper()
	if a.Seq != b.Seq || !a.SweptAt.Equal(b.SweptAt) || a.Queries != b.Queries {
		t.Fatalf("header mismatch: (%d %v %d) vs (%d %v %d)",
			a.Seq, a.SweptAt, a.Queries, b.Seq, b.SweptAt, b.Queries)
	}
	if a.counts != b.counts {
		t.Fatalf("counts %v vs %v", a.counts, b.counts)
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals %d vs %d", a.Total(), b.Total())
	}
	for i := 0; i < a.Total(); i++ {
		av, bv := (VerdictView{g: a, i: i}).Verdict(), (VerdictView{g: b, i: i}).Verdict()
		if !reflect.DeepEqual(av, bv) {
			t.Fatalf("verdict %d: %+v vs %+v", i, av, bv)
		}
	}
	if !reflect.DeepEqual(a.ipIdx, b.ipIdx) && (len(a.ipIdx) > 0 || len(b.ipIdx) > 0) {
		// addr+ordinal rows carry no string refs, so direct comparison holds.
		t.Fatalf("ipIdx mismatch")
	}
	if !reflect.DeepEqual(a.provs, b.provs) && (len(a.provs) > 0 || len(b.provs) > 0) {
		t.Fatalf("providers %v vs %v", a.provs, b.provs)
	}
	if (a.Coverage == nil) != (b.Coverage == nil) {
		t.Fatalf("coverage nilness differs")
	}
	if a.Coverage != nil && !reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("coverage %+v vs %+v", a.Coverage, b.Coverage)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Generation
	}{
		{"empty", NewBuilder().Seal(0, time.Time{})},
		{"rich", snapTestGen(t, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := EncodeSnapshot(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			sameGeneration(t, tc.g, got)

			// Round-tripped generations must serve byte-identical answers.
			origStore, loadStore := NewStore(), NewStore()
			origStore.Restore(tc.g)
			loadStore.Restore(got)
			oh := httptest.NewServer((&API{Store: origStore}).Handler())
			lh := httptest.NewServer((&API{Store: loadStore}).Handler())
			defer oh.Close()
			defer lh.Close()
			for _, q := range []string{
				"/v1/lookup?domain=alpha.test", "/v1/lookup?domain=delta.test",
				"/v1/lookup?ip=198.51.100.10", "/v1/providers", "/v1/coverage",
			} {
				ob, lb := httpGet(t, oh.URL+q), httpGet(t, lh.URL+q)
				if !bytes.Equal(ob, lb) {
					t.Errorf("%s differs after round trip:\n orig: %s\n load: %s", q, ob, lb)
				}
			}
			const apex = dns.Name("feed.test")
			ozr := &ZoneResponder{Apex: apex, Store: origStore}
			lzr := &ZoneResponder{Apex: apex, Store: loadStore}
			src := netip.MustParseAddr("10.0.0.1")
			for i, q := range []dns.Question{
				{Name: DomainName("alpha.test", apex), Type: dns.TypeTXT, Class: dns.ClassINET},
				{Name: "10.100.51.198.urbl." + apex, Type: dns.TypeA, Class: dns.ClassINET},
				{Name: "gen." + apex, Type: dns.TypeTXT, Class: dns.ClassINET},
				{Name: apex, Type: dns.TypeSOA, Class: dns.ClassINET},
			} {
				msg := dns.NewQuery(uint16(i), q.Name, q.Type)
				op, err1 := ozr.HandleQuery(src, msg).Pack()
				lp, err2 := lzr.HandleQuery(src, msg).Pack()
				if err1 != nil || err2 != nil {
					t.Fatalf("pack: %v %v", err1, err2)
				}
				if !bytes.Equal(op, lp) {
					t.Errorf("DNS %s %s differs after round trip", q.Name, q.Type)
				}
			}
		})
	}
}

// TestSnapshotEveryByteFlip corrupts each byte of a valid snapshot in turn;
// every mutation must be detected (magic, CRC, or framing), never decoded.
func TestSnapshotEveryByteFlip(t *testing.T) {
	data, err := EncodeSnapshot(snapTestGen(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("byte %d of %d: flip decoded successfully", i, len(data))
		} else if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("byte %d: error %v does not wrap ErrSnapshotCorrupt", i, err)
		}
	}
}

// TestSnapshotEveryTruncation chops a valid snapshot at every length; torn
// tails must always error — the crash-mid-write guarantee.
func TestSnapshotEveryTruncation(t *testing.T) {
	data, err := EncodeSnapshot(snapTestGen(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0x00)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// TestSnapshotRejectsBrokenInvariants re-encodes generations whose arrays
// violate flat-store invariants; the CRCs are valid, so only the semantic
// validation can catch them.
func TestSnapshotRejectsBrokenInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(g *Generation)
	}{
		{"unsorted records", func(g *Generation) {
			g.recs[0], g.recs[1] = g.recs[1], g.recs[0]
		}},
		{"duplicate records", func(g *Generation) {
			g.recs[1] = g.recs[0]
		}},
		{"string ref out of range", func(g *Generation) {
			g.recs[0].rdata = uint32(len(g.strs) + 5)
		}},
		{"ip span out of range", func(g *Generation) {
			g.recs[0].ipOff = uint32(len(g.ipTab))
			g.recs[0].ipLen = 2
		}},
		{"bad category", func(g *Generation) {
			g.recs[0].category = 9
		}},
		{"bad flags", func(g *Generation) {
			g.recs[0].flags = 0x80
		}},
		{"counts disagree", func(g *Generation) {
			g.counts[0]++
			g.counts[1]--
		}},
		{"ip index unsorted", func(g *Generation) {
			g.ipIdx[0], g.ipIdx[len(g.ipIdx)-1] = g.ipIdx[len(g.ipIdx)-1], g.ipIdx[0]
		}},
		{"ip index rec out of range", func(g *Generation) {
			g.ipIdx[0].rec = uint32(len(g.recs) + 1)
		}},
		{"provider totals disagree", func(g *Generation) {
			g.provs[0].Total += 3
		}},
		{"providers unsorted", func(g *Generation) {
			g.provs[0], g.provs[1] = g.provs[1], g.provs[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := snapTestGen(t, 4)
			tc.mut(g)
			data, err := EncodeSnapshot(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeSnapshot(data); err == nil {
				t.Fatal("invariant violation decoded successfully")
			} else if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("error %v does not wrap ErrSnapshotCorrupt", err)
			}
		})
	}
}

func TestSaveGenerationPruneAndLoadLatest(t *testing.T) {
	dir := t.TempDir()

	// No directory contents yet: nothing to restore, no error.
	g, path, err := LoadLatestSnapshot(filepath.Join(dir, "missing"))
	if g != nil || path != "" || err != nil {
		t.Fatalf("empty restore = (%v, %q, %v)", g, path, err)
	}

	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := SaveGeneration(dir, snapTestGen(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := snapshotFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != snapKeep {
		t.Fatalf("retained %d snapshots %v, want %d", len(names), names, snapKeep)
	}
	g, path, err = LoadLatestSnapshot(dir)
	if err != nil || g == nil {
		t.Fatalf("load latest: %v", err)
	}
	if g.Seq != 3 {
		t.Fatalf("latest seq = %d, want 3", g.Seq)
	}
	if filepath.Base(path) != snapshotName(3) {
		t.Fatalf("latest path = %s", path)
	}

	// Corrupt the newest: the loader must fall back to its predecessor.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(3)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _, err = LoadLatestSnapshot(dir)
	if err != nil || g == nil || g.Seq != 2 {
		t.Fatalf("fallback load = (%v, %v), want generation 2", g, err)
	}

	// Corrupt both: snapshots exist but none is servable — error, not nil.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, _, err = LoadLatestSnapshot(dir); err == nil || g != nil {
		t.Fatalf("all-corrupt load = (%v, %v), want error", g, err)
	}
}

// coldStartResult builds a synthetic sweep result with the given URs.
func coldStartResult(urs ...*core.UR) *core.Result {
	return &core.Result{URs: urs, Queries: int64(100 * len(urs))}
}

func coldStartUR(domain, rdata string, cat core.Category) *core.UR {
	return &core.UR{
		Server: &core.NameserverInfo{
			Addr: netip.MustParseAddr("192.0.2.53"), Host: "ns1.provider.test", Provider: "ColdDNS",
		},
		Domain: dns.Name(domain), Type: dns.TypeA, RData: rdata, TTL: 60,
		CorrespondingIPs: []netip.Addr{netip.MustParseAddr(rdata)},
		Category:         cat,
	}
}

// TestColdStartSemantics is the restart walkthrough: generation N is
// published and snapshotted, a fresh daemon restores it (correct Seq and SOA
// serial, no replayed events), and the first background sweep publishes N+1
// whose diff equals the from-scratch diff of the two generations.
func TestColdStartSemantics(t *testing.T) {
	dir := t.TempDir()
	res1 := coldStartResult(
		coldStartUR("keep.test", "203.0.113.10", core.CategoryUnknown),
		coldStartUR("gone.test", "203.0.113.11", core.CategoryUnknown),
	)
	res2 := coldStartResult(
		coldStartUR("keep.test", "203.0.113.10", core.CategoryMalicious), // reclassified
		coldStartUR("new.test", "203.0.113.12", core.CategoryUnknown),    // appeared
	)

	// First life: sweep once, persist the generation (the OnGeneration hook
	// urwatchd installs with -snapshot-dir).
	w1 := NewWatcher(WatcherConfig{
		Sweep: func(ctx context.Context) (*core.Result, error) { return res1, nil },
		OnGeneration: func(g *Generation, d *GenDiff) {
			if _, err := SaveGeneration(dir, g); err != nil {
				t.Errorf("snapshot: %v", err)
			}
		},
	})
	if _, err := w1.SweepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	g1 := w1.Store().Current()
	if g1.Seq != 1 {
		t.Fatalf("first life seq = %d", g1.Seq)
	}

	// Second life: restore before any sweep.
	w2 := NewWatcher(WatcherConfig{
		Sweep: func(ctx context.Context) (*core.Result, error) { return res2, nil },
	})
	restored, _, err := LoadLatestSnapshot(dir)
	if err != nil || restored == nil {
		t.Fatalf("restore: %v", err)
	}
	w2.Store().Restore(restored)

	// Serves generation N immediately: Seq, verdicts, and the DNSBL SOA
	// serial all say 1 before any sweep has run.
	if got := w2.Store().Current(); got.Seq != 1 || got.Total() != g1.Total() {
		t.Fatalf("restored store serves seq=%d total=%d, want seq=1 total=%d",
			got.Seq, got.Total(), g1.Total())
	}
	const apex = dns.Name("feed.test")
	zr := &ZoneResponder{Apex: apex, Store: w2.Store()}
	resp := zr.HandleQuery(netip.MustParseAddr("10.0.0.1"), dns.NewQuery(1, apex, dns.TypeSOA))
	soa, ok := resp.Answers[0].Data.(*dns.SOA)
	if !ok || soa.Serial != 1 {
		t.Fatalf("restored SOA = %+v, want serial 1", resp.Answers[0].Data)
	}
	// Restore does not replay history: the event log starts empty.
	if n := w2.Store().Log().Len(); n != 0 {
		t.Fatalf("restored event log has %d events, want 0", n)
	}

	// First background sweep: publishes N+1 whose diff equals the
	// from-scratch diff of (restored N, fresh N+1).
	d, err := w2.SweepOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g2 := w2.Store().Current()
	if g2.Seq != 2 {
		t.Fatalf("post-restore sweep seq = %d, want 2", g2.Seq)
	}
	if fresh := Diff(restored, g2); !d.Same(fresh) {
		t.Fatalf("published diff != from-scratch diff:\n pub: %+v\n new: %+v", d.Events, fresh.Events)
	}
	// And equals the diff the uninterrupted first life would have produced.
	uninterrupted := Diff(g1, SnapshotFromResult(res2, 2, time.Unix(2, 0)))
	if !d.Same(uninterrupted) {
		t.Fatalf("restart changed the diff:\n restart: %+v\n 1-life:  %+v", d.Events, uninterrupted.Events)
	}
	kinds := map[EventKind]int{}
	for _, e := range d.Events {
		kinds[e.Kind]++
	}
	if kinds[EventAppeared] != 1 || kinds[EventRemoved] != 1 || kinds[EventReclassified] != 1 {
		t.Fatalf("diff kinds = %v, want one of each", kinds)
	}
}

// FuzzSnapshotLoad feeds mutated snapshot bytes to the loader: whatever the
// input, it must return an error or a fully valid generation — no panics, no
// partially validated data. The corpus seeds valid tiny snapshots so the
// fuzzer starts inside the format and mutates outward.
func FuzzSnapshotLoad(f *testing.F) {
	empty, err := EncodeSnapshot(NewBuilder().Seal(0, time.Time{}))
	if err != nil {
		f.Fatal(err)
	}
	rich, err := EncodeSnapshot(snapTestGen(f, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add(rich)
	f.Add(rich[:len(rich)/2])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), rich...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeSnapshot(data)
		if err != nil {
			if g != nil {
				t.Fatal("error with non-nil generation")
			}
			return
		}
		// Accepted: every access path must hold without panicking.
		total := 0
		for i := 0; i < g.Total(); i++ {
			v := VerdictView{g: g, i: i}
			_ = v.Key()
			_ = v.IPs()
			_ = v.Verdict()
			vs := g.Domain(v.Domain())
			if vs.Len() == 0 {
				t.Fatalf("verdict %d not findable via its own domain", i)
			}
			total++
		}
		if total != g.Total() {
			t.Fatalf("walked %d, Total=%d", total, g.Total())
		}
		sum := 0
		for _, p := range g.Providers() {
			sum += p.Total
		}
		if sum != g.Total() {
			t.Fatalf("provider totals %d != %d", sum, g.Total())
		}
		for _, e := range g.ipIdx {
			_ = (VerdictView{g: g, i: int(e.rec)}).Verdict()
		}
		_ = g.SizeBytes()
	})
}
