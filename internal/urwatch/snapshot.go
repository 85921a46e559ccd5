package urwatch

// Binary generation snapshots: write once per sealed generation, load in one
// pass at startup.
//
// A verdict feed is only a usable defense if resolvers can rely on it being
// up, which makes restart-to-serving latency a first-class metric: a
// restarted urwatchd must answer from the last sealed generation in
// milliseconds, not after a full re-sweep. The flat store makes that almost
// free — a generation already is a handful of contiguous arrays — so the
// snapshot format is little more than those arrays, length-prefixed and
// CRC-framed.
//
// Wire format (all integers little-endian):
//
//	magic    "URWSNAP\x01" (8 bytes)
//	section* each: [u8 kind][u32 payloadLen][u32 CRC-32C(payload)][payload]
//
// Sections appear exactly once, in fixed order:
//
//	kind 1  meta      format version, Seq, SweptAt, Queries, counts, and
//	                  the element count of every later section — load-time
//	                  cross-checks against the actual section contents.
//	kind 2  strings   the deduplicated string table: count × [u32 len][bytes]
//	kind 3  records   count × fixed-width packed verdictRec
//	kind 4  iptab     the packed corresponding-IP arena: count × address
//	kind 5  ipindex   count × [address][u32 record ordinal]
//	kind 6  providers JSON-encoded []*ProviderStats (sorted by name)
//	kind 7  coverage  JSON-encoded *core.Coverage (empty payload when nil)
//	kind 255 end      empty payload — the completion marker
//
// Torn-tail detection mirrors the sweep journal's framing: a crash mid-write
// leaves either a short header, a payload shorter than its declared length,
// or a missing end marker, and each case is a load error, never a partially
// served generation. (Writes additionally go through a temp file + rename,
// so a torn file only exists if the filesystem itself lost the rename.)
// Every CRC is verified before its payload is interpreted, and the decoded
// arrays are re-validated against the flat store's invariants — reference
// bounds, span bounds, sort order, count consistency — so a corrupt
// snapshot that passes CRC (or a hostile one) is still rejected rather than
// served. FuzzSnapshotLoad hammers exactly this surface.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
)

// Snapshot format constants.
const (
	snapVersion = 1
	// snapMagic distinguishes snapshot files from anything else; the final
	// byte doubles as a coarse format epoch so future incompatible layouts
	// can bump it without parsing.
	snapMagic = "URWSNAP\x01"
	// snapHeader is the [u8 kind][u32 len][u32 crc] section prefix.
	snapHeader = 9
	// snapRecSize is the fixed on-disk width of one verdictRec: a 17-byte
	// address (family + 16 value bytes), 8 u32s (five string refs, the IP
	// span pair, the TTL), the u16 type, and category + flags bytes.
	snapRecSize = 17 + 8*4 + 2 + 1 + 1
	// snapAddrSize is one packed address: u8 family (4 or 16) + 16 bytes.
	snapAddrSize = 17
	// snapMaxSection bounds a section's declared payload so a corrupt
	// header cannot demand an absurd allocation before CRC checking.
	snapMaxSection = 1 << 30
)

// Section kinds, in required file order.
const (
	secMeta      byte = 1
	secStrings   byte = 2
	secRecords   byte = 3
	secIPTab     byte = 4
	secIPIndex   byte = 5
	secProviders byte = 6
	secCoverage  byte = 7
	secEnd       byte = 255
)

// snapCRC is the same Castagnoli table the sweep journal frames with.
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt tags every load failure caused by the file's contents
// (as opposed to I/O errors). errors.Is-able.
var ErrSnapshotCorrupt = errors.New("urwatch: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// --- encoding --------------------------------------------------------------

func appendSection(dst []byte, kind byte, payload []byte) []byte {
	var hdr [snapHeader]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, snapCRC))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		dst = append(dst, 4)
		dst = append(dst, b[:]...)
		return append(dst, make([]byte, 12)...)
	}
	b := a.As16()
	dst = append(dst, 16)
	return append(dst, b[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// EncodeSnapshot serializes a sealed generation into the snapshot wire
// format.
func EncodeSnapshot(g *Generation) ([]byte, error) {
	// Meta: fixed-width header with the counts every later section must
	// match.
	meta := make([]byte, 0, 96)
	meta = appendU32(meta, snapVersion)
	meta = binary.LittleEndian.AppendUint64(meta, g.Seq)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.SweptAt.Unix()))
	meta = appendU32(meta, uint32(g.SweptAt.Nanosecond()))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(g.Queries))
	for _, c := range g.counts {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(c))
	}
	meta = appendU32(meta, uint32(len(g.strs)))
	meta = appendU32(meta, uint32(len(g.recs)))
	meta = appendU32(meta, uint32(len(g.ipTab)))
	meta = appendU32(meta, uint32(len(g.ipIdx)))
	meta = appendU32(meta, uint32(len(g.provs)))

	strs := make([]byte, 0, 16*len(g.strs))
	for _, s := range g.strs {
		strs = appendU32(strs, uint32(len(s)))
		strs = append(strs, s...)
	}

	recs := make([]byte, 0, snapRecSize*len(g.recs))
	for i := range g.recs {
		r := &g.recs[i]
		recs = appendAddr(recs, r.server)
		recs = appendU32(recs, r.domain)
		recs = appendU32(recs, r.rdata)
		recs = appendU32(recs, r.nsHost)
		recs = appendU32(recs, r.provider)
		recs = appendU32(recs, r.reason)
		recs = appendU32(recs, r.ipOff)
		recs = appendU32(recs, r.ipLen)
		recs = appendU32(recs, r.ttl)
		recs = binary.LittleEndian.AppendUint16(recs, uint16(r.typ))
		recs = append(recs, r.category, r.flags)
	}

	ipTab := make([]byte, 0, snapAddrSize*len(g.ipTab))
	for _, a := range g.ipTab {
		ipTab = appendAddr(ipTab, a)
	}

	ipIdx := make([]byte, 0, (snapAddrSize+4)*len(g.ipIdx))
	for _, e := range g.ipIdx {
		ipIdx = appendAddr(ipIdx, e.addr)
		ipIdx = appendU32(ipIdx, e.rec)
	}

	provs, err := json.Marshal(g.provs)
	if err != nil {
		return nil, fmt.Errorf("urwatch: snapshot providers: %w", err)
	}
	var coverage []byte
	if g.Coverage != nil {
		coverage, err = json.Marshal(g.Coverage)
		if err != nil {
			return nil, fmt.Errorf("urwatch: snapshot coverage: %w", err)
		}
	}

	out := make([]byte, 0, len(snapMagic)+8*snapHeader+
		len(meta)+len(strs)+len(recs)+len(ipTab)+len(ipIdx)+len(provs)+len(coverage))
	out = append(out, snapMagic...)
	out = appendSection(out, secMeta, meta)
	out = appendSection(out, secStrings, strs)
	out = appendSection(out, secRecords, recs)
	out = appendSection(out, secIPTab, ipTab)
	out = appendSection(out, secIPIndex, ipIdx)
	out = appendSection(out, secProviders, provs)
	out = appendSection(out, secCoverage, coverage)
	out = appendSection(out, secEnd, nil)
	return out, nil
}

// --- decoding --------------------------------------------------------------

// snapReader walks snapshot bytes with bounds-checked reads; every failure
// is an ErrSnapshotCorrupt.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corruptf("truncated at offset %d (want %d bytes, have %d)", r.off, n, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// section reads one framed section, verifying kind and CRC before returning
// the payload.
func (r *snapReader) section(wantKind byte) ([]byte, error) {
	hdr, err := r.take(snapHeader)
	if err != nil {
		return nil, err
	}
	if hdr[0] != wantKind {
		return nil, corruptf("section kind %d where %d expected", hdr[0], wantKind)
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > snapMaxSection {
		return nil, corruptf("section %d declares %d bytes", wantKind, n)
	}
	payload, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, snapCRC); got != binary.LittleEndian.Uint32(hdr[5:9]) {
		return nil, corruptf("section %d CRC mismatch", wantKind)
	}
	return payload, nil
}

func readAddr(b []byte) (netip.Addr, []byte, error) {
	if len(b) < snapAddrSize {
		return netip.Addr{}, nil, corruptf("truncated address")
	}
	fam := b[0]
	switch fam {
	case 4:
		var v [4]byte
		copy(v[:], b[1:5])
		return netip.AddrFrom4(v), b[snapAddrSize:], nil
	case 16:
		var v [16]byte
		copy(v[:], b[1:17])
		return netip.AddrFrom16(v), b[snapAddrSize:], nil
	}
	return netip.Addr{}, nil, corruptf("address family %d", fam)
}

// DecodeSnapshot parses and fully validates snapshot bytes, returning the
// reconstructed immutable generation. Any structural problem — truncation,
// CRC mismatch, out-of-bounds reference, unsorted arrays, inconsistent
// counts — returns an error wrapping ErrSnapshotCorrupt; a decoded
// generation is always safe to serve.
func DecodeSnapshot(data []byte) (*Generation, error) {
	r := &snapReader{b: data}
	magic, err := r.take(len(snapMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != snapMagic {
		return nil, corruptf("bad magic")
	}

	meta, err := r.section(secMeta)
	if err != nil {
		return nil, err
	}
	const metaLen = 4 + 8 + 8 + 4 + 8 + 4*8 + 5*4
	if len(meta) != metaLen {
		return nil, corruptf("meta section is %d bytes, want %d", len(meta), metaLen)
	}
	le := binary.LittleEndian
	if v := le.Uint32(meta[0:4]); v != snapVersion {
		return nil, corruptf("unsupported snapshot version %d", v)
	}
	g := &Generation{}
	g.Seq = le.Uint64(meta[4:12])
	sec := int64(le.Uint64(meta[12:20]))
	nsec := le.Uint32(meta[20:24])
	if nsec >= 1e9 {
		return nil, corruptf("swept-at nanoseconds %d", nsec)
	}
	g.SweptAt = time.Unix(sec, int64(nsec))
	g.Queries = int64(le.Uint64(meta[24:32]))
	off := 32
	total := 0
	for i := range g.counts {
		c := le.Uint64(meta[off : off+8])
		if c > 1<<40 {
			return nil, corruptf("category count %d", c)
		}
		g.counts[i] = int(c)
		total += int(c)
		off += 8
	}
	nStrs := int(le.Uint32(meta[off : off+4]))
	nRecs := int(le.Uint32(meta[off+4 : off+8]))
	nIPs := int(le.Uint32(meta[off+8 : off+12]))
	nIdx := int(le.Uint32(meta[off+12 : off+16]))
	nProvs := int(le.Uint32(meta[off+16 : off+20]))
	if nRecs != total {
		return nil, corruptf("record count %d != category-count sum %d", nRecs, total)
	}
	if nStrs < 1 {
		return nil, corruptf("empty string table")
	}

	// Strings.
	strs, err := r.section(secStrings)
	if err != nil {
		return nil, err
	}
	g.strs = make([]string, 0, nStrs)
	for len(strs) > 0 {
		if len(strs) < 4 {
			return nil, corruptf("truncated string length")
		}
		n := int(le.Uint32(strs[0:4]))
		strs = strs[4:]
		if n > len(strs) {
			return nil, corruptf("string of %d bytes overruns section", n)
		}
		g.strs = append(g.strs, storeInterner.Intern(string(strs[:n])))
		strs = strs[n:]
	}
	if len(g.strs) != nStrs {
		return nil, corruptf("string table has %d entries, meta says %d", len(g.strs), nStrs)
	}
	if g.strs[0] != "" {
		return nil, corruptf("string table entry 0 is %q, want empty", g.strs[0])
	}

	// Records.
	recs, err := r.section(secRecords)
	if err != nil {
		return nil, err
	}
	if len(recs) != nRecs*snapRecSize {
		return nil, corruptf("records section is %d bytes, want %d", len(recs), nRecs*snapRecSize)
	}
	g.recs = make([]verdictRec, nRecs)
	for i := 0; i < nRecs; i++ {
		var rec verdictRec
		rec.server, recs, err = readAddr(recs)
		if err != nil {
			return nil, err
		}
		rec.domain = le.Uint32(recs[0:4])
		rec.rdata = le.Uint32(recs[4:8])
		rec.nsHost = le.Uint32(recs[8:12])
		rec.provider = le.Uint32(recs[12:16])
		rec.reason = le.Uint32(recs[16:20])
		rec.ipOff = le.Uint32(recs[20:24])
		rec.ipLen = le.Uint32(recs[24:28])
		rec.ttl = le.Uint32(recs[28:32])
		rec.typ = dns.Type(le.Uint16(recs[32:34]))
		rec.category = recs[34]
		rec.flags = recs[35]
		recs = recs[36:]
		for _, ref := range [...]uint32{rec.domain, rec.rdata, rec.nsHost, rec.provider, rec.reason} {
			if int(ref) >= nStrs {
				return nil, corruptf("record %d references string %d of %d", i, ref, nStrs)
			}
		}
		if int(rec.ipOff)+int(rec.ipLen) > nIPs {
			return nil, corruptf("record %d IP span [%d,%d) exceeds arena of %d", i, rec.ipOff, rec.ipOff+rec.ipLen, nIPs)
		}
		if rec.category >= uint8(len(g.counts)) {
			return nil, corruptf("record %d category %d", i, rec.category)
		}
		if rec.flags&^(flagByIntel|flagByIDS) != 0 {
			return nil, corruptf("record %d flags %#x", i, rec.flags)
		}
		g.recs[i] = rec
	}
	// Sort order is a serving invariant (binary searches assume it), so it
	// is checked, not trusted.
	for i := 1; i < nRecs; i++ {
		if !recIdentityLess(g, i-1, g, i) {
			return nil, corruptf("records %d and %d out of order or duplicated", i-1, i)
		}
	}
	catTotals := [4]int{}
	for i := range g.recs {
		catTotals[g.recs[i].category]++
	}
	if catTotals != g.counts {
		return nil, corruptf("per-record categories %v != meta counts %v", catTotals, g.counts)
	}

	// IP arena.
	ipTab, err := r.section(secIPTab)
	if err != nil {
		return nil, err
	}
	if len(ipTab) != nIPs*snapAddrSize {
		return nil, corruptf("iptab section is %d bytes, want %d", len(ipTab), nIPs*snapAddrSize)
	}
	g.ipTab = make([]netip.Addr, nIPs)
	for i := 0; i < nIPs; i++ {
		g.ipTab[i], ipTab, err = readAddr(ipTab)
		if err != nil {
			return nil, err
		}
	}

	// IP index.
	ipIdx, err := r.section(secIPIndex)
	if err != nil {
		return nil, err
	}
	if len(ipIdx) != nIdx*(snapAddrSize+4) {
		return nil, corruptf("ipindex section is %d bytes, want %d", len(ipIdx), nIdx*(snapAddrSize+4))
	}
	g.ipIdx = make([]ipEntry, nIdx)
	for i := 0; i < nIdx; i++ {
		g.ipIdx[i].addr, ipIdx, err = readAddr(ipIdx)
		if err != nil {
			return nil, err
		}
		rec := le.Uint32(ipIdx[0:4])
		ipIdx = ipIdx[4:]
		if int(rec) >= nRecs {
			return nil, corruptf("ipindex entry %d references record %d of %d", i, rec, nRecs)
		}
		g.ipIdx[i].rec = rec
	}
	for i := 1; i < nIdx; i++ {
		a, b := g.ipIdx[i-1], g.ipIdx[i]
		if cmp := a.addr.Compare(b.addr); cmp > 0 ||
			(cmp == 0 && !g.recCanonLess(int(a.rec), int(b.rec)) && a.rec != b.rec) {
			return nil, corruptf("ipindex entries %d and %d out of order", i-1, i)
		}
	}

	// Providers.
	provJSON, err := r.section(secProviders)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(provJSON, &g.provs); err != nil {
		return nil, corruptf("providers JSON: %v", err)
	}
	provTotal := 0
	for i, p := range g.provs {
		if p == nil {
			return nil, corruptf("provider %d is null", i)
		}
		if i > 0 && g.provs[i-1].Provider >= p.Provider {
			return nil, corruptf("providers %d and %d out of order", i-1, i)
		}
		provTotal += p.Total
	}
	if provTotal != nRecs {
		return nil, corruptf("provider totals sum to %d, records %d", provTotal, nRecs)
	}
	if len(g.provs) != nProvs {
		return nil, corruptf("providers section has %d entries, meta says %d", len(g.provs), nProvs)
	}

	// Coverage.
	covJSON, err := r.section(secCoverage)
	if err != nil {
		return nil, err
	}
	if len(covJSON) > 0 {
		g.Coverage = &core.Coverage{}
		if err := json.Unmarshal(covJSON, g.Coverage); err != nil {
			return nil, corruptf("coverage JSON: %v", err)
		}
	}

	// Completion marker, then nothing: a torn tail is a missing/short end
	// section; trailing garbage is corruption.
	if _, err := r.section(secEnd); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, corruptf("%d trailing bytes after end marker", r.remaining())
	}
	return g, nil
}

// recIdentityLess is strict (domain, server, type, rdata) ordering across
// two generations' record arrays.
func recIdentityLess(ag *Generation, ai int, bg *Generation, bi int) bool {
	return compareIdentity(ag, ai, bg, bi) < 0
}

// --- files and directories -------------------------------------------------

// WriteSnapshotFile atomically writes g's snapshot to path (temp file +
// rename in the same directory).
func WriteSnapshotFile(g *Generation, path string) error {
	data, err := EncodeSnapshot(g)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("urwatch: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("urwatch: snapshot write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("urwatch: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("urwatch: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads and validates one snapshot file.
func LoadSnapshotFile(path string) (*Generation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// snapKeep is how many generation snapshots SaveGeneration retains: the one
// just written plus its predecessor, so a crash mid-write of the newest
// never strands a restart without a loadable file.
const snapKeep = 2

// snapshotName formats the snapshot filename for a generation; zero-padded
// so lexicographic order is sequence order.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("gen-%016d.snap", seq)
}

// SaveGeneration writes g's snapshot into dir and prunes all but the newest
// snapKeep files. Returns the written path.
func SaveGeneration(dir string, g *Generation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("urwatch: snapshot dir: %w", err)
	}
	path := filepath.Join(dir, snapshotName(g.Seq))
	if err := WriteSnapshotFile(g, path); err != nil {
		return "", err
	}
	if names, err := snapshotFiles(dir); err == nil && len(names) > snapKeep {
		for _, old := range names[:len(names)-snapKeep] {
			os.Remove(filepath.Join(dir, old))
		}
	}
	return path, nil
}

// snapshotFiles lists dir's snapshot filenames, oldest first.
func snapshotFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) > 9 && name[:4] == "gen-" && filepath.Ext(name) == ".snap" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadLatestSnapshot loads the newest valid snapshot in dir, trying older
// files when the newest is corrupt or torn. It returns (nil, "", nil) when
// the directory holds no snapshots at all, and the last load error only if
// every candidate failed — so a caller can distinguish "nothing to restore"
// from "snapshots exist but none is servable".
func LoadLatestSnapshot(dir string) (*Generation, string, error) {
	names, err := snapshotFiles(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, "", nil
		}
		return nil, "", err
	}
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		g, err := LoadSnapshotFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		return g, path, nil
	}
	return nil, "", lastErr
}
