// The replay index against a model, a journal the previous format writer
// left behind, the index's lifetime, and hostile segment and manifest bytes.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// modelRecord is one journal record as the model test generates it.
type modelRecord struct {
	answered bool
	kind     sweepKind
	server   netip.Addr
	name     dns.Name
	qt       dns.Type
	class    dnsio.FailClass
	wire     []byte
}

type modelKey struct {
	kind   sweepKind
	server netip.Addr
	name   dns.Name
	qt     dns.Type
}

// replayModel is the reference the index is checked against: the replay
// rules over plain maps, nothing else. The first answered record of a probe
// wins, the last failure class is kept beside it, and a record whose probe
// the plan does not contain is only counted.
type replayModel struct {
	answered              map[modelKey][]byte
	failed                map[modelKey]dnsio.FailClass
	duplicates, outOfPlan int
}

func runModel(cfg *Config, recs []modelRecord) *replayModel {
	m := &replayModel{answered: map[modelKey][]byte{}, failed: map[modelKey]dnsio.FailClass{}}
	targets := map[dns.Name]bool{}
	for _, t := range cfg.Targets {
		targets[t] = true
	}
	resolvers, nameservers := map[netip.Addr]bool{}, map[netip.Addr]bool{}
	for _, r := range cfg.OpenResolvers {
		resolvers[r] = true
	}
	for _, ns := range cfg.Nameservers {
		nameservers[ns.Addr] = true
	}
	inPlan := func(r modelRecord) bool {
		if r.qt != dns.TypeA && r.qt != dns.TypeTXT {
			return false
		}
		switch r.kind {
		case sweepCorrect:
			return resolvers[r.server] && targets[r.name]
		case sweepURs:
			return nameservers[r.server] && targets[r.name]
		case sweepProtective:
			return nameservers[r.server] && r.name == cfg.CanaryName()
		}
		return false
	}
	for _, r := range recs {
		k := modelKey{r.kind, r.server, r.name, r.qt}
		switch _, have := m.answered[k]; {
		case !inPlan(r):
			m.outOfPlan++
		case !r.answered:
			m.failed[k] = r.class
		case have:
			m.duplicates++
		default:
			m.answered[k] = r.wire
		}
	}
	return m
}

func (m *replayModel) failedOnly() int {
	n := 0
	for k := range m.failed {
		if _, ok := m.answered[k]; !ok {
			n++
		}
	}
	return n
}

// modelConfig is a plan small enough to enumerate: every record the generator
// can draw is checked against the index, in the plan or out of it.
func modelConfig() *Config {
	return &Config{
		Seed:    5,
		Targets: []dns.Name{"a.example", "b.example", "c.example", "d.example"},
		Nameservers: []NameserverInfo{
			{Addr: netip.MustParseAddr("10.9.0.1"), Host: "ns1.test", Provider: "P0"},
			{Addr: netip.MustParseAddr("10.9.0.2"), Host: "ns2.test", Provider: "P1"},
			{Addr: netip.MustParseAddr("2001:db8::53"), Host: "ns3.test", Provider: "P1"},
		},
		OpenResolvers: []netip.Addr{netip.MustParseAddr("10.9.1.1"), netip.MustParseAddr("10.9.1.2")},
	}
}

// modelSpace is everything the generator draws from: the plan's own servers,
// names and types plus ones foreign to it.
type modelSpace struct {
	kinds   []sweepKind
	servers []netip.Addr
	names   []dns.Name
	qtypes  []dns.Type
}

func newModelSpace(cfg *Config) modelSpace {
	sp := modelSpace{
		kinds:   []sweepKind{sweepURs, sweepCorrect, sweepProtective, 3, 200},
		servers: []netip.Addr{netip.MustParseAddr("192.0.2.77"), netip.MustParseAddr("2001:db8::99")},
		names:   append([]dns.Name{cfg.CanaryName(), "unknown.example", ""}, cfg.Targets...),
		qtypes:  []dns.Type{dns.TypeA, dns.TypeTXT, dns.TypeMX},
	}
	sp.servers = append(sp.servers, cfg.OpenResolvers...)
	for _, ns := range cfg.Nameservers {
		sp.servers = append(sp.servers, ns.Addr)
	}
	return sp
}

// draw picks a record. Keys are biased towards the plan (and so towards
// collisions: duplicates, failed-then-answered, answered-then-failed).
func (sp modelSpace) draw(rng *rand.Rand, cfg *Config, n int) modelRecord {
	r := modelRecord{
		kind:   sp.kinds[rng.Intn(len(sp.kinds))],
		server: sp.servers[rng.Intn(len(sp.servers))],
		name:   sp.names[rng.Intn(len(sp.names))],
		qt:     sp.qtypes[rng.Intn(len(sp.qtypes))],
	}
	if rng.Intn(4) > 0 { // steer three in four into the plan
		r.kind = sweepKind(rng.Intn(3))
		r.qt = sp.qtypes[rng.Intn(2)]
		r.name = cfg.Targets[rng.Intn(len(cfg.Targets))]
		r.server = cfg.Nameservers[rng.Intn(len(cfg.Nameservers))].Addr
		switch r.kind {
		case sweepCorrect:
			r.server = cfg.OpenResolvers[rng.Intn(len(cfg.OpenResolvers))]
		case sweepProtective:
			r.name = cfg.CanaryName()
		}
	}
	if r.answered = rng.Intn(3) > 0; !r.answered {
		r.class = dnsio.FailClass(1 + rng.Intn(int(dnsio.FailOther)))
		return r
	}
	switch rng.Intn(8) {
	case 0:
		r.wire = []byte{0xde, 0xad, byte(n)} // CRC-clean, not a DNS message
	case 1:
		r.wire = []byte{}
	default:
		r.wire = testResponse(r.name, dns.TypeA, fmt.Sprintf("203.0.113.%d", n%250+1))
	}
	return r
}

func (r modelRecord) write(t testing.TB, seg *segmentWriter) {
	t.Helper()
	var err error
	if r.answered {
		err = seg.answered(r.kind, r.server, r.name, r.qt, r.wire)
	} else {
		err = seg.failure(r.kind, r.server, r.name, r.qt, r.class)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// checkAgainstModel opens dir and compares index and counters with the model.
func checkAgainstModel(t *testing.T, dir string, cfg *Config, sp modelSpace, m *replayModel, records, torn int) {
	t.Helper()
	j, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.ReplayStats()
	if j.ReplayedAnswered() != len(m.answered) || j.ReplayedFailures() != m.failedOnly() {
		t.Errorf("replayed %d answered, %d failed; model has %d, %d",
			j.ReplayedAnswered(), j.ReplayedFailures(), len(m.answered), m.failedOnly())
	}
	if st.Records != records || st.Duplicates != m.duplicates || st.OutOfPlan != m.outOfPlan || st.Torn != torn || j.TornSegments() != torn {
		t.Errorf("stats %+v; want %d records, %d duplicate, %d out of plan, %d torn",
			st, records, m.duplicates, m.outOfPlan, torn)
	}
	for _, kind := range sp.kinds {
		for _, server := range sp.servers {
			for _, name := range sp.names {
				for _, qt := range sp.qtypes {
					k := modelKey{kind, server, name, qt}
					wire, class, failed := j.replay.lookup(kind, server, name, qt)
					wantWire, answered := m.answered[k]
					wantClass, wantFailed := m.failed[k]
					if (wire != nil) != answered || !bytes.Equal(wire, wantWire) {
						t.Errorf("%v: index answers %x, model %x (answered=%v)", k, wire, wantWire, answered)
					}
					if failed != wantFailed || failed && class != wantClass {
						t.Errorf("%v: index failure (%v,%v), model (%v,%v)", k, class, failed, wantClass, wantFailed)
					}
				}
			}
		}
	}
}

// TestJournalIndexMatchesModel writes seeded random record sequences through
// the real segment writer — several segments, several frames each — and holds
// the index OpenJournal builds to the map model; then tears the last frame at
// every byte and holds it to the model of everything before that frame.
func TestJournalIndexMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		segments, records int
	}{
		{seed: 1, segments: 1, records: 12},
		{seed: 2, segments: 3, records: 60},
		{seed: 3, segments: 4, records: 200},
		{seed: 4, segments: 2, records: 400},
	} {
		t.Run(fmt.Sprintf("seed-%d", tc.seed), func(t *testing.T) {
			cfg := modelConfig()
			sp := newModelSpace(cfg)
			rng := rand.New(rand.NewSource(tc.seed))
			dir := t.TempDir()
			j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			// head is every record up to the last segment's last frame, which
			// holds tail; the generator seals frames itself.
			var head, tail []modelRecord
			for s := 0; s < tc.segments; s++ {
				seg, err := j.newSegment()
				if err != nil {
					t.Fatal(err)
				}
				head, tail = append(head, tail...), nil
				for i := 0; i < tc.records/tc.segments; i++ {
					if len(tail) > 0 && rng.Intn(6) == 0 {
						if err := seg.checkpoint(); err != nil {
							t.Fatal(err)
						}
						head, tail = append(head, tail...), nil
					}
					r := sp.draw(rng, cfg, len(head)+len(tail))
					r.write(t, seg)
					tail = append(tail, r)
				}
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			all := append(append([]modelRecord(nil), head...), tail...)
			checkAgainstModel(t, dir, cfg, sp, runModel(cfg, all), len(all), 0)

			last := filepath.Join(dir, fmt.Sprintf("seg-%05d.wal", tc.segments-1))
			whole, err := os.ReadFile(last)
			if err != nil {
				t.Fatal(err)
			}
			frameStart := 0
			for off := 0; off < len(whole); {
				frameStart = off
				off += frameHeader + int(binary.LittleEndian.Uint32(whole[off:]))
			}
			before := runModel(cfg, head)
			for cut := frameStart; cut < len(whole); cut++ {
				if err := os.WriteFile(last, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				torn := 1
				if cut == frameStart {
					torn = 0 // the file ends on a frame boundary: short, not torn
				}
				checkAgainstModel(t, dir, cfg, sp, before, len(head), torn)
				if t.Failed() {
					t.Fatalf("torn at byte %d of the last frame (%d bytes)", cut-frameStart, len(whole)-frameStart)
				}
			}
		})
	}
}

// TestResumeUndecodableAnswerRequeried pins the rule the index cannot check
// by itself: a CRC-clean answered record whose bytes are not a DNS message is
// neither trusted nor skipped — the probe goes to the network again and the
// report comes out as if the record had never been written.
func TestResumeUndecodableAnswerRequeried(t *testing.T) {
	fx := newChaosFixture(t, 11)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fx = newChaosFixture(t, 11)
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := j.newSegment()
	if err != nil {
		t.Fatal(err)
	}
	ns, target := fx.cfg.Nameservers[2], fx.cfg.Targets[5]
	good := testResponse(target, dns.TypeA, "203.0.113.6")
	for _, r := range []modelRecord{
		{answered: true, kind: sweepURs, server: ns.Addr, name: target, qt: dns.TypeA, wire: []byte{1, 2, 3}},
		// First wins: the decodable duplicate behind it must not rescue it.
		{answered: true, kind: sweepURs, server: ns.Addr, name: target, qt: dns.TypeA, wire: good},
		{answered: false, kind: sweepURs, server: ns.Addr, name: target, qt: dns.TypeA, class: dnsio.FailTimeout},
	} {
		r.write(t, seg)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.ReplayedAnswered() != 1 || j2.ReplayedFailures() != 0 {
		t.Fatalf("replayed %d answered, %d failed; want 1, 0", j2.ReplayedAnswered(), j2.ReplayedFailures())
	}
	fx.cfg.Journal = j2
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fx.fabric.Exchanges(); got != chaosPlanSize {
		t.Errorf("fabric saw %d exchanges, want the whole plan (%d): the undecodable answer was trusted", got, chaosPlanSize)
	}
	if res.Coverage.Attempted != chaosPlanSize || res.Coverage.RetriedRecovered != 0 {
		t.Errorf("coverage %+v: the undecodable probe was booked twice or as a recovery", res.Coverage)
	}
	if renderRecords(res) != renderRecords(baseline) {
		t.Error("report differs from a run with no journal")
	}
}

// TestResumeV1Fixture resumes testdata/journal-v1, a directory the commit
// before the replay index wrote (format version 1, chaos fixture seed 11
// under the deterministic faults, killed after 120 records): the format did
// not move, so it must index to the counts that commit's own replay reported
// and finish to the uninterrupted run's report.
func TestResumeV1Fixture(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{manifestName, "seg-00000.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "journal-v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fx = newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.ReplayStats()
	if j.ReplayedAnswered() != 64 || j.ReplayedFailures() != 52 || st.Records != 120 || st.OutOfPlan != 0 || st.Torn != 0 {
		t.Fatalf("fixture indexed to %d answered, %d failed, %+v; its writer replayed 64, 52 from 120 records",
			j.ReplayedAnswered(), j.ReplayedFailures(), st)
	}
	fx.cfg.Journal = j
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRecords(res), renderRecords(baseline); got != want {
		t.Errorf("resumed fixture differs from the uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
	checkCoverageConsistent(t, res.Coverage)
	if res.Coverage.Attempted != chaosPlanSize {
		t.Errorf("attempted %d, want %d", res.Coverage.Attempted, chaosPlanSize)
	}
}

// TestJournalReleasesReplayState is the daemon's concern: urwatchd keeps the
// Journal value of a sweep alive, and must not keep the previous sweep's wire
// bytes alive with it. After Run the index and segment buffers are gone; the
// counters stay.
func TestJournalReleasesReplayState(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := runJournaled(t, dir, nil, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	// Pad the journal with out-of-plan records so the segment bytes dwarf any
	// bound a leak could hide under.
	fx := newChaosFixture(t, 11)
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := j.newSegment()
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 32<<10)
	const padRecords = 256 // 8 MiB
	for i := 0; i < padRecords; i++ {
		if err := seg.answered(sweepURs, fx.resolver, "pad.example", dns.TypeA, pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	fx = newChaosFixture(t, 11)
	before := heap()
	j, err = OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The two readings straddle a collection, so garbage earlier tests left
	// behind reads as a few negative KiB; 7/8 of the pad is a floor that
	// noise cannot reach and that still dwarfs the 4 MiB bound below.
	if held := heap() - before; held < padRecords*int64(len(pad))*7/8 {
		t.Fatalf("an open journal holds %d bytes; the test expects it to hold most of its %d MiB of segments", held, padRecords*len(pad)>>20)
	}
	fx.cfg.Journal = j
	if _, err := NewPipeline(fx.cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// What legitimately stays: the parked segment writers' buffers (~132 KiB
	// per worker) and the counters.
	if kept := heap() - before; kept > 4<<20 {
		t.Errorf("journal retains %d KiB after Run; the replay state should have been released", kept>>10)
	}
	if j.ReplayedAnswered() != chaosPlanSize || j.ReplayStats().OutOfPlan != padRecords || !j.Resumed() {
		t.Errorf("counters lost with the index: answered %d, stats %+v", j.ReplayedAnswered(), j.ReplayStats())
	}
	if j.replay != nil {
		t.Error("index still attached after every sweep kind finished")
	}
	runtime.KeepAlive(j)
	j.Close()
}

// fuzzJournalDir lays out an empty journal directory for cfg. One serves a
// whole fuzz process: the target rewrites a single file in it per input, so
// an execution is a write and an open, with no directory churn for the
// engine's coverage-guided minimiser to chase.
func fuzzJournalDir(t testing.TB, cfg *Config) string {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenJournal(dir, cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return dir
}

// FuzzJournalSegment feeds arbitrary bytes to OpenJournal as a segment beside
// a valid manifest. It must never panic or index out of bounds, its memory
// must stay a multiple of the input, and every record it accepts must read
// back from the index as bytes of the input.
func FuzzJournalSegment(f *testing.F) {
	cfg := modelConfig()
	sp := newModelSpace(cfg)
	rng := rand.New(rand.NewSource(9))
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, "seg-00000.wal")
	for _, n := range []int{0, 1, 3, 9} {
		j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: 4})
		if err != nil {
			f.Fatal(err)
		}
		seg, err := j.newSegment()
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sp.draw(rng, cfg, i).write(f, seg)
		}
		seg.Close()
		j.Close()
		data, err := os.ReadFile(seg.f.Name())
		if err != nil {
			f.Fatal(err)
		}
		os.Remove(seg.f.Name())
		f.Add(data)
		if len(data) > 12 {
			f.Add(data[:len(data)-3])
			flipped := bytes.Clone(data)
			flipped[11] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, segment []byte) {
		if err := os.WriteFile(path, segment, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, cfg, JournalOptions{})
		if err != nil {
			t.Fatalf("a segment's content must never fail the open: %v", err)
		}
		defer j.Close()
		st := j.ReplayStats()
		if st.Segments != 1 || st.Bytes != int64(len(segment)) {
			t.Fatalf("stats %+v for one %d-byte segment", st, len(segment))
		}
		if j.ReplayedAnswered()+j.ReplayedFailures()+st.Duplicates+st.OutOfPlan > st.Records || st.Records > len(segment) {
			t.Fatalf("counters do not add up: %d answered, %d failed, %+v", j.ReplayedAnswered(), j.ReplayedFailures(), st)
		}
		if j.replay == nil {
			return
		}
		if len(j.replay.segs) != 1 || len(j.replay.segs[0]) != len(segment) {
			t.Fatalf("index holds %d buffers for one %d-byte segment", len(j.replay.segs), len(segment))
		}
		answered, failedOnly := 0, 0
		for id := range j.replay.loc {
			wire := j.replay.wire(id)
			_, failed := j.replay.failed(id)
			switch {
			case wire != nil:
				answered++
				if !bytes.Contains(segment, wire) {
					t.Fatalf("probe %d replays bytes the segment does not hold", id)
				}
			case failed:
				failedOnly++
			}
		}
		if answered != j.ReplayedAnswered() || failedOnly != j.ReplayedFailures() {
			t.Fatalf("index holds %d answered, %d failed; counters say %d, %d",
				answered, failedOnly, j.ReplayedAnswered(), j.ReplayedFailures())
		}
	})
}

// FuzzManifest feeds arbitrary bytes to OpenJournal as the manifest: whatever
// they are, the open either binds to this plan or fails with an error.
func FuzzManifest(f *testing.F) {
	cfg := modelConfig()
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add([]byte(`{"version":1,"plan_hash":"0","shard":{"index":-1,"lo":9,"hi":1,"units":0}}`))
	f.Add([]byte(`{"version":1,"plan_hash":"` + fmt.Sprintf("%016x", cfg.PlanHash()) + `","transport":"doh"}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, cfg, JournalOptions{})
		if err != nil {
			return
		}
		defer j.Close()
		m, perr := parseManifest(data)
		if perr != nil || m.PlanHash != fmt.Sprintf("%016x", cfg.PlanHash()) || m.Shard != nil {
			t.Fatalf("opened over a manifest that does not name this plan: %q", data)
		}
	})
}
