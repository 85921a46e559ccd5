// Back-references: the reference rule the indexer enforces, one copy of an
// answer per segment, replay that never reads the copy's ID, a resume that
// writes the bytes its own segment lacks, and the refusal of version 2.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// segBuilder lays a segment out by hand, so a test can write records the
// writer never does.
type segBuilder struct {
	data    []byte // sealed frames
	payload []byte // the frame being built
	count   uint64
}

func (b *segBuilder) position(rec byte, p probePos) {
	b.payload = append(b.payload, rec)
	b.payload = binary.AppendUvarint(b.payload, uint64(p.unit))
	b.payload = binary.AppendUvarint(b.payload, uint64(p.slot))
	b.count++
}

// here is the offset the next record starts at.
func (b *segBuilder) here() uint32 { return uint32(len(b.data) + frameHeader + len(b.payload)) }

// answered appends an answer with its bytes and returns their offset.
func (b *segBuilder) answered(p probePos, wire []byte) uint32 {
	b.position(recAnswered, p)
	b.payload = binary.LittleEndian.AppendUint32(b.payload, uint32(len(wire)))
	at := b.here()
	b.payload = append(b.payload, wire...)
	return at
}

func (b *segBuilder) ref(p probePos, at uint32) {
	b.position(recRef, p)
	b.payload = binary.AppendUvarint(b.payload, uint64(at))
}

func (b *segBuilder) empty(p probePos) { b.position(recEmpty, p) }

// seal closes the frame as the writer's checkpoint does.
func (b *segBuilder) seal() {
	b.payload = append(b.payload, recCheckpoint)
	b.payload = binary.LittleEndian.AppendUint64(b.payload, b.count)
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(len(b.payload)))
	b.data = binary.LittleEndian.AppendUint32(b.data, crc32.Checksum(b.payload, crcTable))
	b.data = append(b.data, b.payload...)
	b.payload = b.payload[:0]
}

// badReference is a one-segment journal of modelConfig's plan: answers A and
// B at slots 0 and 1 of the first nameserver unit, then a reference at slot
// 2 the indexer must refuse, then more. Replay keeps A and B and nothing
// from the reference on.
type badReference struct {
	name    string
	segment []byte
}

// refAt is a reference's position in badReferences, and bpos the rest's.
var refAt = probePos{unit: 2, slot: 2}

func bpos(slot int) probePos { return probePos{unit: 2, slot: slot} }

func bwire(i int) []byte {
	return testResponse(dns.Name(fmt.Sprintf("p%d.example", i)), dns.TypeA, fmt.Sprintf("203.0.113.%d", i+1))
}

// badReferences lays out one segment per way a reference can be wrong. Each
// layout writes its reference as the offset it is handed and returns the
// offset it means, so the layout is redone until the two agree: an offset's
// varint length moves the records after it.
func badReferences() []badReference {
	lay := func(layout func(b *segBuilder, ref uint32) (want uint32)) []byte {
		for ref := uint32(0); ; {
			var b segBuilder
			want := layout(&b, ref)
			if want == ref {
				return b.data
			}
			ref = want
		}
	}
	return []badReference{
		{"forwards", lay(func(b *segBuilder, ref uint32) uint32 {
			b.answered(bpos(0), bwire(0))
			b.seal()
			b.answered(bpos(1), bwire(1))
			b.ref(refAt, ref)
			c := b.answered(bpos(3), bwire(3))
			b.seal()
			return c
		})},
		{"itself", lay(func(b *segBuilder, ref uint32) uint32 {
			b.answered(bpos(0), bwire(0))
			b.seal()
			b.answered(bpos(1), bwire(1))
			self := b.here()
			b.ref(refAt, ref)
			b.answered(bpos(3), bwire(3))
			b.seal()
			return self
		})},
		{"middle of a record", lay(func(b *segBuilder, ref uint32) uint32 {
			a := b.answered(bpos(0), bwire(0))
			b.seal()
			b.answered(bpos(1), bwire(1))
			b.ref(refAt, ref)
			b.seal()
			return a + 3
		})},
		{"length of a record", lay(func(b *segBuilder, ref uint32) uint32 {
			a := b.answered(bpos(0), bwire(0))
			b.seal()
			b.answered(bpos(1), bwire(1))
			b.ref(refAt, ref)
			b.seal()
			return a - 4
		})},
		{"past a torn frame", lay(func(b *segBuilder, ref uint32) uint32 {
			b.answered(bpos(0), bwire(0))
			b.seal()
			b.answered(bpos(1), bwire(1))
			b.ref(refAt, ref)
			b.seal()
			d := b.answered(bpos(3), bwire(3))
			b.seal()
			b.data = b.data[:len(b.data)-3]
			return d
		})},
	}
}

// TestJournalRefusesBadReference holds the indexer to the reference rule: a
// reference must name the bytes of an earlier answered record of its own
// segment. Each of badReferences truncates replay at the reference; a
// reference into another segment — at an offset where that segment holds an
// answer's bytes — does the same; and a good one replays as the answer it
// names.
func TestJournalRefusesBadReference(t *testing.T) {
	cfg := modelConfig()
	var other segBuilder
	other.answered(bpos(0), bwire(0))
	other.seal()
	var here segBuilder
	here.empty(bpos(0))
	here.answered(bpos(1), bwire(1))
	here.ref(refAt, uint32(frameHeader+1+1+1+4)) // where other holds A's bytes
	here.seal()
	var good segBuilder
	good.answered(bpos(0), bwire(0))
	good.seal()
	b := good.answered(bpos(1), bwire(1))
	good.ref(refAt, b)
	good.seal()

	type refCase struct {
		name     string
		segments [][]byte
		good     bool // the reference replays; else it and all after it are torn
	}
	cases := []refCase{{"another segment", [][]byte{other.data, here.data}, false}, {"good", [][]byte{good.data}, true}}
	for _, c := range badReferences() {
		cases = append(cases, refCase{c.name, [][]byte{c.segment}, false})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := fuzzJournalDir(t, cfg)
			for i, seg := range c.segments {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%05d.wal", i)), seg, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, err := OpenJournal(dir, cfg, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if st := j.ReplayStats(); (st.Torn == 0) != c.good {
				t.Errorf("indexed to %+v", st)
			}
			for slot := 0; slot < 4; slot++ {
				wire, ok, _, _ := j.replay.lookup(bpos(slot))
				want := slot < 2 || slot == 2 && c.good
				if ok != want {
					t.Errorf("slot %d answered %v, want %v", slot, ok, want)
				}
				if slot == 2 && ok && string(wire) != string(bwire(1)) {
					t.Errorf("the reference replays as %x, want B's bytes", wire)
				}
			}
		})
	}
}

// segRecord is one data record of a segment, as walkSegment reads it.
type segRecord struct {
	typ  byte
	pos  probePos
	off  int    // where the record starts
	at   uint32 // recAnswered: where its bytes are; recRef: the offset it names
	wire []byte // recAnswered's bytes
}

// walkSegment hands rec a clean segment's data records in order, read as the
// format lays them out without the indexer, and fails the test on a frame or
// record it cannot read.
func walkSegment(t testing.TB, data []byte, rec func(segRecord)) {
	t.Helper()
	le := binary.LittleEndian
	for off := 0; off < len(data); {
		end := off + frameHeader
		if end <= len(data) {
			end += int(le.Uint32(data[off:]))
		}
		if end > len(data) || crc32.Checksum(data[off+frameHeader:end], crcTable) != le.Uint32(data[off+4:]) {
			t.Fatalf("the frame at offset %d is torn", off)
		}
		for p := off + frameHeader; p < end; {
			r := segRecord{typ: data[p], off: p}
			p++
			if r.typ == recCheckpoint {
				p += 8
				continue
			}
			unit, n := binary.Uvarint(data[p:end])
			p += n
			slot, n := binary.Uvarint(data[p:end])
			p += n
			r.pos = probePos{int(unit), int(slot)}
			switch r.typ {
			case recAnswered:
				l := int(le.Uint32(data[p:]))
				p += 4
				r.at, r.wire = uint32(p), data[p:p+l]
				p += l
			case recRef:
				at, n := binary.Uvarint(data[p:end])
				r.at = uint32(at)
				p += n
			case recFailure:
				p++
			case recEmpty:
			default:
				t.Fatalf("record type %d at offset %d", r.typ, r.off)
			}
			rec(r)
		}
		off = end
	}
}

// segmentFiles reads dir's segments by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, _, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := map[string][]byte{}
	for _, name := range names {
		if segs[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return segs
}

// copiesAndRefs walks a segment: the number of copies it holds of each answer
// (its bytes after the ID) and its references, each checked to name the bytes
// of an answered record before it.
func copiesAndRefs(t *testing.T, name string, data []byte) (copies map[string]int, refs int) {
	t.Helper()
	copies = map[string]int{}
	held := map[uint32]bool{}
	walkSegment(t, data, func(r segRecord) {
		switch r.typ {
		case recAnswered:
			copies[string(r.wire[2:])]++
			held[r.at] = true
		case recRef:
			refs++
			if !held[r.at] || int(r.at) >= r.off {
				t.Errorf("%s: the reference at offset %d names %d, which holds no earlier answer's bytes", name, r.off, r.at)
			}
		}
	})
	return copies, refs
}

// TestJournalHoldsOneCopyPerAnswer: the fixture's six nameservers answer
// alike, so one sweep worker journals each answer's bytes once in its segment
// and every repeat as a reference to them. Replay hands a reference the
// first copy's bytes and reads nothing of their ID: with every copy's ID
// overwritten, the resume still queries nothing and reports as the sweep did.
func TestJournalHoldsOneCopyPerAnswer(t *testing.T) {
	fx := newChaosFixture(t, 11)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	one := func(fx *chaosFixture) { fx.cfg.Parallelism = 1 }
	dir := t.TempDir()
	if _, _, _, err := runJournaled(t, dir, one, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	// 12 targets × 2 types: the resolver's answers, and the ones every
	// nameserver gives; the canary's NXDOMAIN is journaled empty.
	const answers, nameservers = 24, 6
	held, refs := 0, 0
	for name, data := range segmentFiles(t, dir) {
		copies, r := copiesAndRefs(t, name, data)
		for _, n := range copies {
			if n != 1 {
				t.Errorf("%s holds an answer %d times", name, n)
			}
		}
		held += len(copies)
		refs += r
	}
	if held != 2*answers || refs != (nameservers-1)*answers {
		t.Errorf("the journal holds %d copies and %d references; want %d and %d", held, refs, 2*answers, (nameservers-1)*answers)
	}

	for name, data := range segmentFiles(t, dir) {
		walkSegment(t, data, func(r segRecord) {
			if r.typ == recAnswered {
				r.wire[0], r.wire[1] = 0xff, 0xff
			}
		})
		for off := 0; off < len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(data[off+frameHeader:off+frameHeader+n], crcTable))
			off += frameHeader + n
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, j, fx2, err := runJournaled(t, dir, nil, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.ReplayStats(); st.Torn != 0 || j.ReplayedAnswered() != chaosPlanSize || fx2.fabric.Exchanges() != 0 {
		t.Errorf("resume over rewritten IDs indexed %+v, replayed %d of %d, queried %d", st, j.ReplayedAnswered(), chaosPlanSize, fx2.fabric.Exchanges())
	}
	if renderRecords(res) != renderRecords(baseline) {
		t.Error("the resumed report differs from the sweep's")
	}
}

// cutAtServer fails the first exchange to one server with the sweep's
// cancellation, as a socket read does when its context ends.
type cutAtServer struct {
	inner  dnsio.Transport
	server netip.Addr
	cancel context.CancelFunc
}

func (c *cutAtServer) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if server.Addr() == c.server {
		c.cancel()
		return nil, ctx.Err()
	}
	return c.inner.Exchange(ctx, buf, server, packed, tcp)
}

// TestResumeWritesBytesItsSegmentLacks: a resumed worker's memo holds answers
// replayed from an older segment, whose bytes its own segment lacks. The first
// run (one worker a pool) has the fourth nameserver dark and is cut at the
// fifth's first exchange. The resume re-probes the fourth's failed probes and
// sweeps the fifth and sixth, all of whose answers equal replayed ones: the
// first of each is journaled with its bytes and only later ones as references
// to that copy, so every reference names bytes in its own segment, a reopen
// indexes the whole plan with nothing torn, and the report is the sweep's.
func TestResumeWritesBytesItsSegmentLacks(t *testing.T) {
	fx := newChaosFixture(t, 11)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var cut *cutAtServer
	_, _, _, err = runJournaled(t, dir, func(fx *chaosFixture) {
		fx.cfg.Parallelism = 1
		dnsio.SetSimFault(fx.fabric, fx.nsAddrs[3], simnet.FaultProfile{Blackhole: true})
		cut = &cutAtServer{inner: &dnsio.SimTransport{Fabric: fx.fabric, Src: fx.cfg.SrcAddr}, server: fx.nsAddrs[4]}
		fx.cfg.Transport = cut
	}, context.Background(), func(_ *Journal, cancel context.CancelFunc) { cut.cancel = cancel })
	if err == nil {
		t.Fatal("the cut run reported no error")
	}
	first := segmentFiles(t, dir)
	replayed := map[string]bool{}
	for name, data := range first {
		copies, _ := copiesAndRefs(t, name, data)
		for k := range copies {
			replayed[k] = true
		}
	}

	res, j, _, err := runJournaled(t, dir, func(fx *chaosFixture) { fx.cfg.Parallelism = 1 }, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ReplayedAnswered() == 0 || j.ReplayedFailures() == 0 {
		t.Fatalf("the resume replayed %d answers and %d failures", j.ReplayedAnswered(), j.ReplayedFailures())
	}
	if renderRecords(res) != renderRecords(baseline) {
		t.Error("the resumed report differs from the sweep's")
	}
	rewritten := 0
	for name, data := range segmentFiles(t, dir) {
		if _, ok := first[name]; ok {
			continue
		}
		copies, _ := copiesAndRefs(t, name, data)
		for k := range copies {
			if replayed[k] {
				rewritten++
			}
		}
	}
	if rewritten == 0 {
		t.Error("the resume journaled no answer equal to a replayed one with its bytes")
	}
	fx = newChaosFixture(t, 11)
	j, err = OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.ReplayStats(); st.Torn != 0 || j.ReplayedAnswered() != chaosPlanSize {
		t.Errorf("the resumed journal indexes to %+v with %d of %d answered", st, j.ReplayedAnswered(), chaosPlanSize)
	}
}

// TestJournalRefusesV2Directory: a version 2 directory — here a version 3
// journal whose manifest claims 2, the records alike but for references — is
// refused by resume and merge with the last commit that reads it named, and
// is left byte for byte as it was.
func TestJournalRefusesV2Directory(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := runJournaled(t, dir, nil, context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	setManifestVersion(t, dir, 2)
	before := dirBytes(t, dir)
	fx := newChaosFixture(t, 11)
	_, openErr := OpenJournal(dir, fx.cfg, JournalOptions{})
	dst := filepath.Join(t.TempDir(), "merged")
	_, mergeErr := MergeShardJournals(dst, fx.cfg, []string{dir})
	for _, err := range []error{openErr, mergeErr} {
		if err == nil {
			t.Fatal("a version 2 directory was accepted")
		}
		for _, frag := range []string{"manifest version 2", "no longer reads", version2Reader, "fresh directory"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("refusal missing %q: %v", frag, err)
			}
		}
	}
	if after := dirBytes(t, dir); !maps.Equal(after, before) {
		t.Error("the refused open or merge changed the directory")
	}
	if entries, _ := os.ReadDir(dst); len(entries) != 0 {
		t.Errorf("the refused merge left %d files", len(entries))
	}
}
