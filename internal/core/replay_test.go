// The replay index against a model, journals the previous format writer
// left behind, the index's lifetime, and hostile segment and manifest bytes.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// modelRecord is one journal record as the model test generates it: a
// version 1 record keyed by (kind, server, name, qt), or a version 2 record
// at pos — an answer with bytes, an empty answer, or a failure.
type modelRecord struct {
	v1       bool
	answered bool
	empty    bool
	kind     sweepKind
	server   netip.Addr
	name     dns.Name
	qt       dns.Type
	pos      probePos
	class    dnsio.FailClass
	wire     []byte
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

// modelPos places a record in cfg's plan without the index's arithmetic:
// version 1 keys through first-listing maps, version 2 positions through the
// plan's unit and span bounds. ok is false for a probe the plan does not
// hold.
func modelPos(cfg *Config, r modelRecord) (probePos, bool) {
	nq, nt, nr := len(cfg.queryTypes()), len(cfg.Targets), len(cfg.OpenResolvers)
	if !r.v1 {
		u := r.pos.unit
		span := (nt + 1) * nq
		if u < nr {
			span = nt * nq
		}
		return r.pos, u >= 0 && u < cfg.PlanUnits() && r.pos.slot >= 0 && r.pos.slot < span
	}
	q := slices.Index(cfg.queryTypes(), r.qt)
	t := slices.Index(cfg.Targets, r.name)
	var u int
	switch r.kind {
	case sweepCorrect:
		u = slices.Index(cfg.OpenResolvers, r.server)
	case sweepURs, sweepProtective:
		u = slices.IndexFunc(cfg.Nameservers, func(ns NameserverInfo) bool { return ns.Addr == r.server })
		if u >= 0 {
			u += nr
		}
		if r.kind == sweepProtective {
			t = -1
			if r.name == cfg.CanaryName() {
				t = nt
			}
		}
	default:
		return probePos{}, false
	}
	if u < 0 || t < 0 || q < 0 {
		return probePos{}, false
	}
	return probePos{u, t*nq + q}, true
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
// twice, where version 1 keys (first listing) and positions part ways.
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

// modelSpace is everything the generator draws from: the plan's own servers,
// names, types and positions plus ones foreign to it.
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

// draw picks a record: a version 1 key one time in three when v1 is set,
// else a position. Both are biased towards the plan (and so towards
// collisions — duplicates, failed-then-answered, answered-then-failed, and a
// version 1 record and a position naming one probe).
func (sp modelSpace) draw(rng *rand.Rand, cfg *Config, n int, v1 bool) modelRecord {
	r := modelRecord{v1: v1 && rng.Intn(3) == 0}
	inPlan := rng.Intn(4) > 0 // steer three in four into the plan
	if r.v1 {
		r.kind = sp.kinds[rng.Intn(len(sp.kinds))]
		r.server = sp.servers[rng.Intn(len(sp.servers))]
		r.name = sp.names[rng.Intn(len(sp.names))]
		r.qt = sp.qtypes[rng.Intn(len(sp.qtypes))]
		if inPlan {
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
	} else {
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
		r.name = dns.Name(fmt.Sprintf("p%d.example", n))
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
		if !r.v1 {
			r.empty, r.wire = true, nil
			break
		}
		fallthrough
	default:
		r.wire = testResponse(r.name, dns.TypeA, fmt.Sprintf("203.0.113.%d", n%250+1))
	}
	return r
}

func (r modelRecord) write(t testing.TB, seg *segmentWriter) {
	t.Helper()
	var err error
	switch {
	case r.v1 && r.answered:
		err = writeV1(seg, recAnsweredV1, r.kind, r.server, r.name, r.qt, r.wire, 0)
	case r.v1:
		err = writeV1(seg, recFailureV1, r.kind, r.server, r.name, r.qt, nil, r.class)
	case r.empty:
		err = seg.empty(r.pos)
	case r.answered:
		err = seg.answered(r.pos, r.wire)
	default:
		err = seg.failure(r.pos, r.class)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// writeV1 appends one record in the version 1 encoding — the key
// (type, sweep, server, domain, qtype), then a failure's class or an answer's
// length-prefixed bytes — as the writer before position keys did.
func writeV1(s *segmentWriter, rec byte, kind sweepKind, server netip.Addr, domain dns.Name, qt dns.Type, wire []byte, class dnsio.FailClass) error {
	s.buf = append(s.buf, rec, byte(kind))
	a := server.AsSlice()
	s.buf = append(s.buf, byte(len(a)))
	s.buf = append(s.buf, a...)
	s.buf = binary.LittleEndian.AppendUint16(s.buf, uint16(len(domain)))
	s.buf = append(s.buf, domain...)
	s.buf = binary.LittleEndian.AppendUint16(s.buf, uint16(qt))
	if rec == recFailureV1 {
		s.buf = append(s.buf, byte(class))
	} else {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(len(wire)))
		s.buf = append(s.buf, wire...)
	}
	return s.appendData()
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

// TestJournalIndexMatchesModel writes seeded random record sequences — both
// key families, answers with bytes and empty ones, failures — through the
// real segment writer, several segments, several frames each, and holds the
// index OpenJournal builds to the map model; then tears the last frame at
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
					r := sp.draw(rng, cfg, len(head)+len(tail), true)
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
			var v1, empty int
			for _, r := range all {
				if r.v1 {
					v1++
				}
				if r.empty {
					empty++
				}
			}
			if v1 == 0 || v1 == len(all) || empty == 0 {
				t.Fatalf("the draws cover %d version 1 records and %d empties of %d", v1, empty, len(all))
			}
			checkAgainstModel(t, dir, cfg, runModel(cfg, all), len(all), 0)

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
				checkAgainstModel(t, dir, cfg, before, len(head), torn)
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

// copyV1Fixture lays testdata/journal-v1 out in a fresh directory.
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

// TestResumeV1ThenV2 resumes the version 1 fixture, cuts that run after 60
// new records, and resumes the directory — now version 1 and version 2
// segments side by side — again: the manifest reads 2 from the first open
// on, the report equals the uninterrupted run, and the servers no fault
// touches see exactly their plan minus the probes the journal answered.
func TestResumeV1ThenV2(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := copyV1Fixture(t)
	if v := manifestVersion(t, dir); v != 1 {
		t.Fatalf("fixture manifest reads version %d", v)
	}
	_, _, _, err = runJournaled(t, dir, applyDeterministicFaults, context.Background(),
		func(j *Journal, cancel context.CancelFunc) {
			if v := manifestVersion(t, dir); v != journalVersion {
				t.Errorf("resumed version 1 directory reads version %d before the first new record", v)
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
	if st.Segments < 2 || st.Records <= 120 || st.Empty == 0 || st.OutOfPlan != 0 || st.Torn != 0 {
		t.Errorf("mixed directory indexed to %+v", st)
	}
	if v := manifestVersion(t, dir); v != journalVersion {
		t.Errorf("manifest reads version %d after two resumes", v)
	}
	if got, want := renderRecords(res), renderRecords(baseline); got != want {
		t.Errorf("resumed mixed directory differs from the uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
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
	// alone; the pad goes through the bytes-keeping writer on purpose.
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
		if err := seg.answered(probePos{unit: fx.cfg.PlanUnits(), slot: i}, pad); err != nil {
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
// must stay a multiple of the input, every answer it accepts with bytes must
// read back from the index as bytes of the input, and every empty one as
// answered with no bytes.
func FuzzJournalSegment(f *testing.F) {
	cfg := modelConfig()
	sp := newModelSpace(cfg)
	rng := rand.New(rand.NewSource(9))
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, "seg-00000.wal")
	for _, seed := range []struct {
		n  int
		v1 bool // mix version 1 records in
	}{{0, false}, {1, false}, {3, false}, {9, false}, {3, true}, {9, true}} {
		j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: 4})
		if err != nil {
			f.Fatal(err)
		}
		seg, err := j.newSegment()
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < seed.n; i++ {
			sp.draw(rng, cfg, i, seed.v1).write(f, seg)
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
		if j.ReplayedAnswered()+j.ReplayedFailures()+st.Duplicates+st.OutOfPlan > st.Records || st.Empty > j.ReplayedAnswered() || st.Records > len(segment) {
			t.Fatalf("counters do not add up: %d answered, %d failed, %+v", j.ReplayedAnswered(), j.ReplayedFailures(), st)
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
// versions 1 and 2 open, and an open leaves the manifest at version 2.
func FuzzManifest(f *testing.F) {
	cfg := modelConfig()
	dir := fuzzJournalDir(f, cfg)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"version": 2`), []byte(`"version": 3`), 1))
	f.Add([]byte(`{"version":1,"plan_hash":"0","shard":{"index":-1,"lo":9,"hi":1,"units":0}}`))
	f.Add([]byte(`{"version":1,"plan_hash":"` + fmt.Sprintf("%016x", cfg.PlanHash()) + `","transport":"doh"}`))
	f.Add([]byte(`[`))
	f.Add(bytes.Replace(good, []byte(`"version": 2`), []byte(`"version": 1`), 1))
	f.Add(bytes.Replace(good, []byte(`"version": 2`), []byte(`"version": 0`), 1))
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
		var raw struct{ Version json.Number }
		if json.Unmarshal(data, &raw) != nil || raw.Version != "1" && raw.Version != "2" {
			t.Fatalf("opened over a manifest of version %q", raw.Version)
		}
		if v := manifestVersion(t, dir); v != journalVersion {
			t.Fatalf("an open left the manifest at version %d", v)
		}
	})
}
