// The replay index against a model, the refusal of journals the previous
// format's writer left behind, the index's lifetime, and hostile segment and
// manifest bytes.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// modelRecord is one journal record as the model test generates it: at
// pos, an answer with bytes, a reference to an earlier answer's bytes, an
// empty answer, or a failure.
type modelRecord struct {
	answered bool
	empty    bool
	pos      probePos
	class    dnsio.FailClass
	wire     []byte
	// at is a reference's: the offset of the bytes it names, which wire holds.
	at uint32
}

// replayModel is the reference the index is checked against: the replay
// rules over plain maps keyed by plan position, nothing else. The first
// answered record of a probe wins (nil wire: it was empty), the last failure
// class is kept beside it — a class byte past FailOther reads as FailOther —
// and a record whose probe the plan does not contain is only counted.
type replayModel struct {
	answered                     map[probePos][]byte
	failed                       map[probePos]dnsio.FailClass
	duplicates, outOfPlan, empty int
}

// modelPos places a record in cfg's plan through the plan's unit and span
// bounds, without the index's arithmetic. ok is false for a probe the plan
// does not hold.
func modelPos(cfg *Config, r modelRecord) (probePos, bool) {
	nq, nt, nr := len(cfg.queryTypes()), len(cfg.Targets), len(cfg.OpenResolvers)
	u := r.pos.unit
	span := (nt + 1) * nq
	if u < nr {
		span = nt * nq
	}
	return r.pos, u >= 0 && u < cfg.PlanUnits() && r.pos.slot >= 0 && r.pos.slot < span
}

func runModel(cfg *Config, recs []modelRecord) *replayModel {
	m := &replayModel{answered: map[probePos][]byte{}, failed: map[probePos]dnsio.FailClass{}}
	for _, r := range recs {
		p, in := modelPos(cfg, r)
		switch _, have := m.answered[p]; {
		case !in:
			m.outOfPlan++
		case !r.answered:
			m.failed[p] = min(r.class, dnsio.FailOther)
		case have:
			m.duplicates++
		default:
			m.answered[p] = r.wire
			if r.empty {
				m.empty++
			}
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

// modelConfig is a plan small enough to enumerate: every position the plan
// holds is checked against the index. It lists a target and a nameserver
// twice; a position names each listing's probe.
func modelConfig() *Config {
	return &Config{
		Seed:    5,
		Targets: []dns.Name{"a.example", "b.example", "c.example", "d.example", "b.example"},
		Nameservers: []NameserverInfo{
			{Addr: netip.MustParseAddr("10.9.0.1"), Host: "ns1.test", Provider: "P0"},
			{Addr: netip.MustParseAddr("10.9.0.2"), Host: "ns2.test", Provider: "P1"},
			{Addr: netip.MustParseAddr("2001:db8::53"), Host: "ns3.test", Provider: "P1"},
			{Addr: netip.MustParseAddr("10.9.0.1"), Host: "ns1.test", Provider: "P0"},
		},
		OpenResolvers: []netip.Addr{netip.MustParseAddr("10.9.1.1"), netip.MustParseAddr("10.9.1.2")},
	}
}

// drawRecord picks a record at a position biased towards the plan (and so
// towards collisions — duplicates, failed-then-answered, answered-then-failed).
func drawRecord(rng *rand.Rand, cfg *Config, n int) modelRecord {
	var r modelRecord
	inPlan := rng.Intn(4) > 0 // steer three in four into the plan
	units, span := cfg.PlanUnits(), (len(cfg.Targets)+1)*len(cfg.queryTypes())
	r.pos = probePos{rng.Intn(units + 2), rng.Intn(span + 2)}
	switch {
	case inPlan:
		r.pos.unit = rng.Intn(units)
		if r.pos.unit < len(cfg.OpenResolvers) {
			span = len(cfg.Targets) * len(cfg.queryTypes())
		}
		r.pos.slot = rng.Intn(span)
	case rng.Intn(2) == 0: // positions far past any plan: nine-octet varints
		r.pos.unit, r.pos.slot = rng.Intn(2)<<62, 1<<40+rng.Intn(3)
	}
	if r.answered = rng.Intn(3) > 0; !r.answered {
		// Past FailOther too: a writer with more named classes (FailOther+1
		// was "other" while a stall class sat before it) or a flipped bit.
		r.class = dnsio.FailClass(1 + rng.Intn(int(dnsio.FailOther)+2))
		if rng.Intn(16) == 0 {
			r.class = dnsio.FailClass(rng.Intn(256-int(dnsio.FailOther)) + int(dnsio.FailOther))
		}
		return r
	}
	switch rng.Intn(8) {
	case 0:
		r.wire = []byte{0xde, 0xad, byte(n)} // CRC-clean, not a DNS message
	case 1:
		r.wire = []byte{}
	case 2, 3:
		r.empty = true
	default:
		r.wire = testResponse(dns.Name(fmt.Sprintf("p%d.example", n)), dns.TypeA, fmt.Sprintf("203.0.113.%d", n%250+1))
	}
	return r
}

// write journals r through seg and returns where an answer written with its
// bytes put them, 0 for any other record.
func (r modelRecord) write(t testing.TB, seg *segmentWriter) uint32 {
	t.Helper()
	var at uint32
	var err error
	switch {
	case r.empty:
		err = seg.empty(r.pos)
	case r.at != 0:
		err = seg.ref(r.pos, r.at)
	case r.answered:
		at, err = seg.answered(r.pos, r.wire)
	default:
		err = seg.failure(r.pos, r.class)
	}
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// segCopy is an answer's bytes and where the segment being written holds them.
type segCopy struct {
	at   uint32
	wire []byte
}

// drawStep draws a segment's next record — drawRecord's, or one time in four
// once the segment holds an answer's bytes, a reference to one of them at
// drawRecord's position — and writes it through seg. copies gains the bytes
// of an answer written with them.
func drawStep(t testing.TB, rng *rand.Rand, cfg *Config, n int, seg *segmentWriter, copies *[]segCopy) modelRecord {
	r := drawRecord(rng, cfg, n)
	if len(*copies) > 0 && rng.Intn(4) == 0 {
		c := (*copies)[rng.Intn(len(*copies))]
		r = modelRecord{answered: true, pos: r.pos, wire: c.wire, at: c.at}
	}
	if at := r.write(t, seg); at != 0 {
		*copies = append(*copies, segCopy{at, r.wire})
	}
	return r
}

// checkAgainstModel opens dir and compares index and counters with the model
// at every position the plan holds.
func checkAgainstModel(t *testing.T, dir string, cfg *Config, m *replayModel, records, torn int) {
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
	if st.Records != records || st.Empty != m.empty || st.Duplicates != m.duplicates || st.OutOfPlan != m.outOfPlan || st.Torn != torn {
		t.Errorf("stats %+v; want %d records, %d empty, %d duplicate, %d out of plan, %d torn",
			st, records, m.empty, m.duplicates, m.outOfPlan, torn)
	}
	nq := len(cfg.queryTypes())
	for u := 0; u < cfg.PlanUnits(); u++ {
		span := (len(cfg.Targets) + 1) * nq
		if u < len(cfg.OpenResolvers) {
			span = len(cfg.Targets) * nq
		}
		for slot := 0; slot < span; slot++ {
			p := probePos{u, slot}
			wire, answered, class, failed := j.replay.lookup(p)
			wantWire, wantAnswered := m.answered[p]
			wantClass, wantFailed := m.failed[p]
			if answered != wantAnswered || (wire == nil) != (wantWire == nil) || !bytes.Equal(wire, wantWire) {
				t.Errorf("%v: index answers %x (answered=%v), model %x (answered=%v)", p, wire, answered, wantWire, wantAnswered)
			}
			if failed != wantFailed || failed && class != wantClass {
				t.Errorf("%v: index failure (%v,%v), model (%v,%v)", p, class, failed, wantClass, wantFailed)
			}
		}
	}
}

// TestJournalIndexMatchesModel writes seeded random record sequences —
// answers with bytes, references to them and empty answers, failures —
// through the real segment writer, several segments, several frames each, and holds the
// index OpenJournal builds to the map model; then tears the last frame at
// every byte, and flips each of its bytes, and holds each to the model of
// everything before that frame.
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
				var copies []segCopy
				for i := 0; i < tc.records/tc.segments; i++ {
					if len(tail) > 0 && rng.Intn(6) == 0 {
						if err := seg.checkpoint(); err != nil {
							t.Fatal(err)
						}
						head, tail = append(head, tail...), nil
					}
					tail = append(tail, drawStep(t, rng, cfg, len(head)+len(tail), seg, &copies))
				}
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			all := append(append([]modelRecord(nil), head...), tail...)
			empty, refs := 0, 0
			for _, r := range all {
				if r.empty {
					empty++
				}
				if r.at != 0 {
					refs++
				}
			}
			if empty == 0 || empty == len(all) || refs == 0 {
				t.Fatalf("the draws cover %d empties and %d references of %d records", empty, refs, len(all))
			}
			checkAgainstModel(t, dir, cfg, runModel(cfg, all), len(all), 0)

			last := filepath.Join(dir, fmt.Sprintf("seg-%05d.wal", tc.segments-1))
			whole, err := os.ReadFile(last)
			if err != nil {
				t.Fatal(err)
			}
			frameStart := lastFrame(whole)
			before := runModel(cfg, head)
			for at := frameStart; at < len(whole); at++ {
				flipped := slices.Clone(whole)
				flipped[at] ^= 0xFF
				for _, seg := range [][]byte{whole[:at], flipped} { // torn at the byte, or the byte flipped
					if err := os.WriteFile(last, seg, 0o644); err != nil {
						t.Fatal(err)
					}
					torn := 1
					if len(seg) == frameStart {
						torn = 0 // the file ends on a frame boundary: short, not torn
					}
					checkAgainstModel(t, dir, cfg, before, len(head), torn)
					if t.Failed() {
						t.Fatalf("byte %d of the last frame (%d bytes), %d of the segment's %d bytes left", at-frameStart, len(whole)-frameStart, len(seg), len(whole))
					}
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
	pos := testPos(fx.cfg, sweepURs, ns.Addr, target, dns.TypeA)
	good := testResponse(target, dns.TypeA, "203.0.113.6")
	for _, r := range []modelRecord{
		{answered: true, pos: pos, wire: []byte{1, 2, 3}},
		// First wins: the decodable duplicate behind it must not rescue it.
		{answered: true, pos: pos, wire: good},
		{answered: false, pos: pos, class: dnsio.FailTimeout},
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

// copyV1Fixture lays testdata/journal-v1 out in a fresh directory. The
// fixture is a directory written in format version 1 — chaos fixture seed 11
// under the deterministic faults, killed after 120 records, every one of
// them a keyed record of type 1 or 2.
func copyV1Fixture(t *testing.T) string {
	t.Helper()
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
	return dir
}

// dirBytes reads every file in dir, by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// manifestVersion reads a journal directory's manifest version.
func manifestVersion(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Version int }
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.Version
}

// setManifestVersion rewrites dir's manifest to claim version v, every other
// byte as it was.
func setManifestVersion(t *testing.T, dir string, v int) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`"version": %d`, manifestVersion(t, dir))
	if !bytes.Contains(data, []byte(old)) {
		t.Fatalf("manifest does not read %s: %s", old, data)
	}
	data = bytes.Replace(data, []byte(old), []byte(fmt.Sprintf(`"version": %d`, v)), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRefusesV1Fixture opens testdata/journal-v1, which this binary no
// longer reads: the open fails with an error that names the version, the
// last commit that reads it and what else to do, and the directory is left
// byte for byte as it was — no manifest rewrite, no new segment.
func TestJournalRefusesV1Fixture(t *testing.T) {
	dir := copyV1Fixture(t)
	before := dirBytes(t, dir)
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	_, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err == nil {
		t.Fatal("a version 1 directory opened")
	}
	for _, frag := range []string{"manifest version 1", "no longer reads", version1Reader, "fresh directory"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("refusal missing %q: %v", frag, err)
		}
	}
	if after := dirBytes(t, dir); !maps.Equal(after, before) {
		t.Errorf("the refused open changed the directory: %d files, was %d", len(after), len(before))
	}
}

// TestResumeBumpedV1Directory resumes the version 1 fixture with its manifest
// at version 2, as a binary that still read version 1 left a directory it had
// resumed. The retired records are not trusted: the segment reads as torn at
// its first frame, its probes go to the network again, and the report is the
// uninterrupted run's — through a first resume cut after 60 new records and
// a second over the version 2 segments that cut left beside the torn one.
// The manifest is never rewritten.
func TestResumeBumpedV1Directory(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := copyV1Fixture(t)
	setManifestVersion(t, dir, journalVersion)
	manifest := dirBytes(t, dir)[manifestName]
	_, _, _, err = runJournaled(t, dir, applyDeterministicFaults, context.Background(),
		func(j *Journal, cancel context.CancelFunc) {
			if st := j.ReplayStats(); st.Segments != 1 || st.Records != 0 || st.Torn != 1 || j.replay != nil {
				t.Errorf("bumped directory indexed to %+v", st)
			}
			j.AppendHook = func(total int64) {
				if total == 60 {
					cancel()
				}
			}
		})
	if err == nil {
		t.Fatal("cut run reported no error")
	}

	// Per clean unit — a server no fault touches answers each live probe on
	// its first exchange — the probes the journal answers.
	clean := map[netip.Addr]int64{fx.resolver: 0, fx.nsAddrs[2]: 0, fx.nsAddrs[4]: 0, fx.nsAddrs[5]: 0}
	var st ReplayStats
	res, j, fx2, err := runJournaled(t, dir, applyDeterministicFaults, context.Background(),
		func(j *Journal, _ context.CancelFunc) {
			st = j.ReplayStats()
			ri := j.replay
			for u := 0; u < fx.cfg.PlanUnits(); u++ {
				addr := fx.resolver
				if u > 0 {
					addr = fx.nsAddrs[u-1]
				}
				if _, ok := clean[addr]; !ok {
					continue
				}
				span := ri.nsSpan
				if u == 0 {
					span = ri.rSpan
				}
				for id := ri.unitBase(u); id < ri.unitBase(u)+span; id++ {
					if _, ok := ri.answer(id); ok {
						clean[addr]++
					}
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 2 || st.Records < 60 || st.Empty == 0 || st.OutOfPlan != 0 || st.Torn != 1 {
		t.Errorf("bumped directory with version 2 segments indexed to %+v", st)
	}
	if got := dirBytes(t, dir)[manifestName]; got != manifest {
		t.Errorf("the manifest was rewritten:\n%s\nwas\n%s", got, manifest)
	}
	if got, want := renderRecords(res), renderRecords(baseline); got != want {
		t.Errorf("resumed bumped directory differs from the uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
	checkCoverageConsistent(t, res.Coverage)
	if res.Coverage.Attempted != chaosPlanSize || j.ReplayedAnswered() == 0 {
		t.Errorf("attempted %d of %d, %d replayed", res.Coverage.Attempted, chaosPlanSize, j.ReplayedAnswered())
	}
	for addr, replayed := range clean {
		plan := int64(13 * 2)
		if addr == fx.resolver {
			plan = 12 * 2
		}
		if got := fx2.fabric.QueriesTo(addr); got != plan-replayed {
			t.Errorf("%s saw %d exchanges, want %d (plan %d - %d replayed)", addr, got, plan-replayed, plan, replayed)
		}
	}
}

// TestResumeRepeatedTarget lists a target twice. Records name probes by
// position, so each listing's probes replay from their own records: a resume
// of a finished sweep queries nothing, and its report is the sweep's.
func TestResumeRepeatedTarget(t *testing.T) {
	repeat := func(fx *chaosFixture) { fx.cfg.Targets = append(fx.cfg.Targets, fx.cfg.Targets[3]) }
	fx := newChaosFixture(t, 11)
	repeat(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plan := baseline.Coverage.Attempted
	if plan != chaosPlanSize+6*2+2 {
		t.Fatalf("plan with a repeated target attempts %d probes", plan)
	}
	dir := t.TempDir()
	if _, _, _, err := runJournaled(t, dir, repeat, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	res, j, fx2, err := runJournaled(t, dir, repeat, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(j.ReplayedAnswered()) != plan || fx2.fabric.Exchanges() != 0 {
		t.Errorf("resume replayed %d of %d probes and issued %d exchanges", j.ReplayedAnswered(), plan, fx2.fabric.Exchanges())
	}
	if renderRecords(res) != renderRecords(baseline) {
		t.Error("resumed report differs from the sweep's")
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
	// bound a leak could hide under. Zero-filled "wire" has nothing in it the
	// collector reads, so the collector would journal it as its position
	// alone; the pad goes through the bytes-keeping writer on purpose, and
	// each pad differs from the others, so no writer could hold them as one
	// copy and references to it.
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
		binary.LittleEndian.PutUint32(pad[2:], uint32(i))
		if _, err := seg.answered(probePos{unit: fx.cfg.PlanUnits(), slot: i}, pad); err != nil {
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

// retiredFrame walks a segment's well-framed, CRC-clean frames and returns
// the number of the first whose payload opens with a version 1 record type
// (1 or 2), or -1 if none does before the walk ends.
func retiredFrame(segment []byte) int {
	for k, off := 0, 0; len(segment)-off >= frameHeader; k++ {
		length := int(binary.LittleEndian.Uint32(segment[off:]))
		payload := segment[off+frameHeader:]
		if length > maxJournalFrame || len(payload) < length ||
			crc32.Checksum(payload[:length], crcTable) != binary.LittleEndian.Uint32(segment[off+4:]) {
			return -1
		}
		if length > 0 && (payload[0] == 1 || payload[0] == 2) {
			return k
		}
		off += frameHeader + length
	}
	return -1
}

// FuzzJournalSegment feeds arbitrary bytes to OpenJournal as a segment beside
// a valid manifest. It must never panic or index out of bounds, its memory
// must stay a multiple of the input, every answer it accepts with bytes must
// read back from the index as bytes of the input, and every empty one as
// answered with no bytes. A CRC-clean frame that opens with a retired
// version 1 record type — the seeds include testdata/journal-v1's segment —
// ends the segment as torn, and nothing from it on is indexed. The seeds
// also hold references, good ones and each kind of bad one badReferences
// lays out.
func FuzzJournalSegment(f *testing.F) {
	cfg := modelConfig()
	rng := rand.New(rand.NewSource(9))
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, "seg-00000.wal")
	addCut := func(data []byte) {
		f.Add(data)
		if len(data) > 12 {
			f.Add(data[:len(data)-3])
			flipped := bytes.Clone(data)
			flipped[11] ^= 0x40
			f.Add(flipped)
		}
	}
	var clean []byte
	for _, n := range []int{0, 1, 3, 9, 27} {
		j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: 4})
		if err != nil {
			f.Fatal(err)
		}
		seg, err := j.newSegment()
		if err != nil {
			f.Fatal(err)
		}
		var copies []segCopy
		for i := 0; i < n; i++ {
			drawStep(f, rng, cfg, i, seg, &copies)
		}
		seg.Close()
		j.Close()
		if clean, err = os.ReadFile(seg.f.Name()); err != nil {
			f.Fatal(err)
		}
		os.Remove(seg.f.Name())
		addCut(clean)
	}
	retired, err := os.ReadFile(filepath.Join("testdata", "journal-v1", "seg-00000.wal"))
	if err != nil {
		f.Fatal(err)
	}
	addCut(retired)
	f.Add(append(bytes.Clone(clean), retired...)) // version 2 frames, then retired ones
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	for _, c := range badReferences() {
		f.Add(c.segment)
	}
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
		if j.ReplayedAnswered()+j.ReplayedFailures()+st.Duplicates+st.OutOfPlan > st.Records || st.Empty > j.ReplayedAnswered() || st.Records > len(segment) {
			t.Fatalf("counters do not add up: %d answered, %d failed, %+v", j.ReplayedAnswered(), j.ReplayedFailures(), st)
		}
		if k := retiredFrame(segment); k >= 0 {
			if st.Frames > k || st.Torn != 1 || k == 0 && (st.Records != 0 || j.replay != nil) {
				t.Fatalf("frame %d opens with a retired record type, yet the segment indexed to %+v", k, st)
			}
		}
		if j.replay == nil {
			return
		}
		if len(j.replay.segs) != 1 || len(j.replay.segs[0]) != len(segment) {
			t.Fatalf("index holds %d buffers for one %d-byte segment", len(j.replay.segs), len(segment))
		}
		answered, empty, failedOnly := 0, 0, 0
		for id := range j.replay.loc {
			wire, ok := j.replay.answer(id)
			_, failed := j.replay.failed(id)
			switch {
			case ok && wire == nil:
				answered++
				empty++
			case ok:
				answered++
				if !bytes.Contains(segment, wire) {
					t.Fatalf("probe %d replays bytes the segment does not hold", id)
				}
			case failed:
				failedOnly++
			}
		}
		if answered != j.ReplayedAnswered() || empty != st.Empty || failedOnly != j.ReplayedFailures() {
			t.Fatalf("index holds %d answered (%d empty), %d failed; counters say %d (%d), %d",
				answered, empty, failedOnly, j.ReplayedAnswered(), st.Empty, j.ReplayedFailures())
		}
	})
}

// FuzzManifest feeds arbitrary bytes to OpenJournal as the manifest: whatever
// they are, the open either binds to this plan or fails with an error. Only
// version 3 opens, and no open rewrites the manifest: it stays byte for byte
// what was written.
func FuzzManifest(f *testing.F) {
	cfg := modelConfig()
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"version": 3`), []byte(`"version": 4`), 1))
	f.Add([]byte(`{"version":1,"plan_hash":"0","shard":{"index":-1,"lo":9,"hi":1,"units":0}}`))
	f.Add([]byte(`{"version":1,"plan_hash":"` + fmt.Sprintf("%016x", cfg.PlanHash()) + `","transport":"doh"}`))
	f.Add([]byte(`[`))
	f.Add(bytes.Replace(good, []byte(`"version": 3`), []byte(`"version": 1`), 1))
	f.Add(bytes.Replace(good, []byte(`"version": 3`), []byte(`"version": 0`), 1))
	f.Add(bytes.Replace(good, []byte(`"version": 3`), []byte(`"version": 2`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, cfg, JournalOptions{})
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			t.Fatalf("the open (err %v) rewrote the manifest %q as %q", err, data, after)
		}
		if err != nil {
			return
		}
		defer j.Close()
		m, perr := parseManifest(data)
		if perr != nil || m.PlanHash != fmt.Sprintf("%016x", cfg.PlanHash()) || m.Shard != nil {
			t.Fatalf("opened over a manifest that does not name this plan: %q", data)
		}
		var raw struct{ Version json.Number }
		if json.Unmarshal(data, &raw) != nil || raw.Version != "3" {
			t.Fatalf("opened over a manifest of version %q", raw.Version)
		}
	})
}
