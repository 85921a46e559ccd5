// Sweep checkpoint journal: crash-safe, resumable collection.
//
// A paper-scale sweep is ~36M exchanges; treating it as all-or-nothing means
// a crash, OOM, or operator Ctrl-C throws away every answered probe. The
// journal gives the collector training-run durability: workers append
// answered probes and failure-book entries to per-worker segment files as
// they happen, flushing to the OS at checkpoint boundaries, and a resumed
// run indexes the journal before touching the network — each worker folds a
// server's already-answered probes back through the exact same code path its
// live answers take, so the resumed report is byte-identical to an
// uninterrupted run at any parallelism.
//
// Durability tiers: records buffer in memory between checkpoints (lost if
// the process dies mid-interval); a checkpoint write()s them to the kernel,
// which survives any process-level death — SIGKILL, OOM, panic — the
// failure modes preemption actually produces. fsync, which additionally
// survives kernel crash and power loss, is opt-in via SyncEvery because it
// costs hundreds of microseconds per call; losing an unsynced tail never
// breaks resume, it only re-queries the probes the tail covered (the CRC
// framing below treats a ripped tail as absent, not as truth).
//
// On-disk layout (one directory per sweep):
//
//	manifest.json   {version, plan_hash, seed} — guards against resuming
//	                the wrong sweep; the hash covers everything that defines
//	                the probe plan (seed, targets, nameservers, resolvers,
//	                query types) and deliberately excludes parallelism.
//	seg-NNNNN.wal   append-only segments; each run's workers write fresh
//	                segments numbered after every existing one, so old
//	                segments are never reopened for writing.
//
// Segment framing: records batch into one frame per checkpoint flush —
// [u32 length][u32 CRC-32C (Castagnoli) of the payload][records...], lengths
// little-endian, the payload's final record a checkpoint marker carrying the
// cumulative record count. Group framing (one CRC per flush, not per record)
// is what keeps the journal's overhead invisible next to the sweep itself;
// it costs nothing in durability because records only ever reach the file a
// whole flush at a time. A hard kill can tear the tail of a segment
// mid-frame; replay detects the torn frame via length/CRC and discards the
// tail rather than trusting it — the probes it covered are simply
// re-queried.
//
// Records (version 3) name a probe by plan position — full-plan unit and
// slot inside the unit — and keep response bytes only for answers the
// collector reads records from; an answer with nothing in it (not NOERROR,
// or no answer records) is its position alone and replays without a decode.
// An answer whose bytes (after the ID) the same segment already holds is a
// back-reference: its position and the segment offset of the first copy.
// Replay feeds the bytes it does keep back through the validated decoder
// (Message.UnpackFrom into the worker's scratch), so the decoder is fuzzed
// (FuzzMessageUnpack) against exactly this attacker-influenceable surface.
// The journal reads only the version it writes: a directory of any other
// version is refused at open and left as it is.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	transportpkg "repro/internal/transport"
)

// journal format constants.
const (
	// journalVersion is what this binary writes and the only version it
	// reads; OpenJournal and MergeShardJournals refuse any other.
	journalVersion = 3
	// version1Reader and version2Reader are the last commits whose binaries
	// read a version 1 journal (records keyed by sweep kind, address, name and
	// query type) and a version 2 one (position records, every answer with
	// its bytes); a directory of either version is refused with its commit
	// named.
	version1Reader = "aed264be753d"
	version2Reader = "3e2bf3cd1087"
	manifestName   = "manifest.json"
	segmentPrefix  = "seg-"
	segmentSuffix  = ".wal"
	// frameHeader is the [u32 length][u32 CRC-32C] prefix of every frame.
	frameHeader = 8
	// maxJournalFrame bounds a frame's declared payload length; anything
	// larger is corruption. A frame holds at most segBufHighwater of
	// buffered records plus one in-flight record (a DNS response tops out
	// at 64 KiB) and the checkpoint marker, far under this bound.
	maxJournalFrame = 1 << 20
	// defaultCheckpointEvery is the record interval between flush
	// checkpoints when the caller does not choose one. Records average 26
	// bytes at `small` (version 1 records averaged 74: every answer's bytes
	// under a full key), so an interval is ~26 KiB and a hard kill forfeits
	// at most 1024 probes' re-queries; a smaller interval buys little and
	// pays a write() per interval.
	defaultCheckpointEvery = 1024
	// segBufHighwater flushes a segment writer early when its buffer
	// reaches this size, whatever the record interval — CheckpointEvery can
	// then be raised freely without unbounded buffering. Writers allocate
	// this much up front so the append path never grows the buffer.
	segBufHighwater = 128 << 10
)

// record types inside a segment. A position is [uvarint unit][uvarint slot]
// (see probePos). Types 1 and 2 were version 1's keyed records; the reader
// meets them as it meets any type it does not know, as corruption.
const (
	recCheckpoint byte = 3 // cumulative record count, written at each flush
	recAnswered   byte = 4 // position + [u32 length][packed DNS response]
	recEmpty      byte = 5 // position of an answer the collector reads nothing from
	recFailure    byte = 6 // position + failure class
	recRef        byte = 7 // position + [uvarint offset of an earlier recAnswered's response]
)

// probePos names a probe by its place in the plan, the way a record does.
// unit is the server's unit in the full plan, in PlanUnits order — a
// shard adds its Desc.Lo to its local unit, so shard journals merge by
// linking segments. slot is target position × |qtypes| + qtype position
// inside the unit, the canary after the last target; the kind follows from
// the two (a resolver unit's slots are correct-record probes, a nameserver
// unit's UR probes and then its canary probes).
type probePos struct{ unit, slot int }

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64 and
// arm64 even for the short frames the journal writes, where the IEEE
// polynomial's carry-less-multiply path never amortises its setup.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wireLoc locates one answered record's response bytes: segment buffer seg,
// byte offset off. off is never below frameHeader for a real record (a frame
// header and a position precede it), so the zero value means "not answered" and
// emptyOff "answered with nothing in it"; the length is the u32 the writer
// put right before the bytes.
type wireLoc struct{ seg, off uint32 }

// emptyOff is the offset of an answer journaled as its position alone.
const emptyOff = 1

// maxSegmentBytes is the largest segment wireLoc can address.
const maxSegmentBytes = 1<<32 - 1

// replayIndex is the journal's replay state, dense over the plan: every
// probe the config can issue has an integer id — the unit's first id plus
// the probe's slot, units in PlanUnits order (open resolvers, then
// nameservers) — so "what does the journal hold for this probe" is two array
// reads, with no hashing and nothing for the collector to scan. A resolver
// unit spans targets×qtypes ids (its correct-record probes); a nameserver
// unit spans (targets+1)×qtypes (its UR probes, then its protective canary
// probes).
//
// OpenJournal fills it in one sequential pass over the segments and it is
// read-only from then on: sweep workers share it without locks.
type replayIndex struct {
	nTargets   int        // len(Config.Targets)
	canary     dns.Name   // the protective probe's only valid name
	qtypes     []dns.Type // Config.queryTypes()
	nResolvers int        // resolver units, the first of the config's units
	nUnits     int        // Config.PlanUnits()
	firstUnit  int        // full-plan number of the config's unit 0
	rSpan      int        // ids per resolver unit
	nsSpan     int        // ids per nameserver unit
	nsBase     int        // first nameserver id

	loc  []wireLoc // per probe id: where the first answered record's bytes are
	fail []uint8   // per probe id: 0, or 1 + the last failure record's class
	segs [][]byte  // whole segment files, indexed by wireLoc.seg
}

func newReplayIndex(cfg *Config) *replayIndex {
	nq := len(cfg.queryTypes())
	ri := &replayIndex{
		nTargets:   len(cfg.Targets),
		canary:     cfg.CanaryName(),
		qtypes:     cfg.queryTypes(),
		nResolvers: len(cfg.OpenResolvers),
		nUnits:     cfg.PlanUnits(),
		firstUnit:  cfg.firstUnit(),
		rSpan:      len(cfg.Targets) * nq,
		nsSpan:     (len(cfg.Targets) + 1) * nq,
	}
	ri.nsBase = ri.nResolvers * ri.rSpan
	n := ri.nsBase + len(cfg.Nameservers)*ri.nsSpan
	ri.loc = make([]wireLoc, n)
	ri.fail = make([]uint8, n)
	return ri
}

// unitBase returns the first probe id of the config's unit u, or -1 when the
// plan has no such unit.
func (ri *replayIndex) unitBase(u int) int {
	switch {
	case u < 0 || u >= ri.nUnits:
		return -1
	case u < ri.nResolvers:
		return u * ri.rSpan
	default:
		return ri.nsBase + (u-ri.nResolvers)*ri.nsSpan
	}
}

// posID maps a record's position onto its probe id, or -1 when the
// unit is outside the config's units or the slot outside the unit's span.
func (ri *replayIndex) posID(unit, slot uint64) int {
	u := unit - uint64(ri.firstUnit)
	if unit < uint64(ri.firstUnit) || u >= uint64(ri.nUnits) {
		return -1
	}
	span := ri.nsSpan
	if u < uint64(ri.nResolvers) {
		span = ri.rSpan
	}
	if slot >= uint64(span) {
		return -1
	}
	return ri.unitBase(int(u)) + int(slot)
}

// answer returns what the journal holds for an answered probe: ok is false
// when it holds no answer, wire nil when the answer was journaled empty.
func (ri *replayIndex) answer(id int) (wire []byte, ok bool) {
	l := ri.loc[id]
	switch l.off {
	case 0:
		return nil, false
	case emptyOff:
		return nil, true
	}
	buf := ri.segs[l.seg]
	n := binary.LittleEndian.Uint32(buf[l.off-4:])
	return buf[l.off : l.off+n : l.off+n], true
}

// failed reports whether the journal holds a failure record for the probe,
// and the last one's class.
func (ri *replayIndex) failed(id int) (dnsio.FailClass, bool) {
	f := ri.fail[id]
	return dnsio.FailClass(f - 1), f != 0
}

// ReplayStats says where a resume went: what OpenJournal read and what it
// made of it. Segments, Frames and Bytes are the journal's layout: they
// depend on how the workers split the plan, so two identical runs may differ
// in them. Records, Empty, Duplicates, OutOfPlan and Torn — like
// ReplayedAnswered and ReplayedFailures beside them — are its content, equal
// for every uninterrupted journal of one plan and fault surface, whatever the
// parallelism.
type ReplayStats struct {
	Segments   int           // segment files found
	Frames     int           // CRC-clean frames decoded
	Bytes      int64         // segment bytes read
	Records    int           // answered, empty and failure records decoded
	Empty      int           // answered probes restored without bytes: nothing to decode
	Duplicates int           // answered records dropped by the first-wins rule
	OutOfPlan  int           // records whose probe is not in this plan, ignored
	Torn       int           // segments cut short at a torn or corrupt frame
	Open       time.Duration // wall-clock of the read-and-index pass
}

func (s ReplayStats) String() string {
	return fmt.Sprintf("%d segments, %d frames, %.1f MB, %d records (%d empty, %d duplicate, %d out of plan), %d torn, indexed in %s",
		s.Segments, s.Frames, float64(s.Bytes)/(1<<20), s.Records, s.Empty, s.Duplicates, s.OutOfPlan, s.Torn, s.Open.Round(time.Millisecond))
}

// JournalOptions tunes a journal.
type JournalOptions struct {
	// CheckpointEvery is how many records a segment buffers in memory
	// between flush checkpoints. Smaller loses less work to a hard kill;
	// larger amortises the write cost. Zero selects the default (1024).
	CheckpointEvery int
	// SyncEvery, when positive, fsyncs a segment after every SyncEvery-th
	// checkpoint (and at segment close), extending durability from
	// process death to power loss. Zero — the default — never fsyncs:
	// checkpointed records sit in the kernel page cache, which survives
	// every process-level failure, and a torn post-crash tail is detected
	// and re-queried rather than trusted.
	SyncEvery int
}

func (o JournalOptions) checkpointEvery() int {
	if o.CheckpointEvery <= 0 {
		return defaultCheckpointEvery
	}
	return o.CheckpointEvery
}

// Journal is a sweep checkpoint directory: a manifest binding it to one
// probe plan, plus append-only segments. One Journal serves one pipeline
// run; workers obtain private segment writers so appends never contend.
type Journal struct {
	dir  string
	opts JournalOptions

	mu      sync.Mutex
	nextSeg int
	idle    []*segmentWriter // released writers parked for the next sweep

	// Replay state, set by OpenJournal over a directory that already held a
	// journal. The counters are final when OpenJournal returns; the index
	// itself (and the segment bytes it points into) lives only until every
	// sweep kind has replayed, or Close — see replayDone.
	resumed          bool
	stats            ReplayStats
	replayedAnswered int
	replayedFailures int
	replay           *replayIndex // guarded by mu
	kindsDone        uint8        // bit per finished sweepKind, guarded by mu

	// appended is booked by whole checkpoints — one shared write per frame,
	// not per record — unless an AppendHook needs every record's number.
	appended atomic.Int64

	// AppendHook, when set before the run starts, observes the global
	// appended-record count after every data append: each of 1..N reaches it
	// exactly once, from the appending worker's goroutine. Tests use it to
	// cancel a sweep at an exact journal position, a fleet worker to die at
	// one; a plain run leaves it nil.
	AppendHook func(total int64)
}

// manifest is the serialized journal identity. Shard journals additionally
// record the full plan's hash and their shard descriptor, so a mismatched
// resume or merge can say *what* is wrong (different plan vs different shard)
// instead of only that the hashes differ.
type manifest struct {
	Version  int    `json:"version"`
	PlanHash string `json:"plan_hash"`
	Seed     int64  `json:"seed"`

	// FullPlanHash is the unsharded plan's hash; empty on whole-plan
	// journals, whose PlanHash already is the full hash.
	FullPlanHash string `json:"full_plan_hash,omitempty"`
	// Shard is the shard descriptor, nil on whole-plan journals.
	Shard *shardManifest `json:"shard,omitempty"`

	// Transport is the wire transport the journal's records were collected
	// over ("udp", "dot", "doh"); empty means udp, so journals written
	// before the field existed keep resuming. Transport is deliberately not
	// part of PlanHash — verdicts are transport-independent and the reports
	// byte-identical — but the failure books are not comparable across
	// transports (a TLS-handshake failure has no UDP analogue), so resume
	// and merge refuse to mix them.
	Transport string `json:"transport,omitempty"`
}

// shardManifest is ShardDesc in manifest form.
type shardManifest struct {
	Index int `json:"index"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Units int `json:"units"`
}

// PlanHash fingerprints everything that defines the probe plan: the seed and
// query types plus the target, nameserver, and resolver sets. Parallelism
// and pacing are excluded on purpose — a sweep may be resumed with a
// different worker count and must produce the same report.
func (c *Config) PlanHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d\n", c.Seed)
	for _, qt := range c.queryTypes() {
		fmt.Fprintf(h, "qt=%d\n", uint16(qt))
	}
	for _, t := range c.Targets {
		fmt.Fprintf(h, "target=%s\n", t)
	}
	for _, ns := range c.Nameservers {
		fmt.Fprintf(h, "ns=%s|%s|%s\n", ns.Addr, ns.Host, ns.Provider)
	}
	for _, r := range c.OpenResolvers {
		fmt.Fprintf(h, "resolver=%s\n", r)
	}
	return h.Sum64()
}

// journalIdentity is what a journal directory is bound to: the plan hash its
// records belong under (the full plan hash for whole-plan journals, the
// shard-extended hash for shard journals), the underlying full plan's hash,
// and the shard descriptor when the journal covers only a slice of the plan.
type journalIdentity struct {
	plan      uint64
	full      uint64
	shard     *ShardDesc
	seed      int64
	transport string
}

// OpenJournal opens (creating if needed) the checkpoint journal for cfg's
// sweep. If the directory already holds a journal, its manifest must be of
// journalVersion and match the config's identity — resuming someone else's
// sweep would silently skip the wrong probes — and every readable segment
// record is indexed against cfg's plan; torn tails are detected and
// discarded. An existing manifest is never rewritten.
//
// A whole-plan config is identified by its plan hash. A config cut by
// ShardConfig is identified by the shard-extended hash of the plan it was cut
// from, so a shard journal resumes only as the same shard of the same plan —
// re-opening it as a different shard, or as the whole plan, fails with an
// error that says which mismatch happened.
func OpenJournal(dir string, cfg *Config, opts JournalOptions) (*Journal, error) {
	kind, err := transportpkg.ParseKind(cfg.TransportKind)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	id := journalIdentity{seed: cfg.Seed, transport: kind.String()}
	if sh := cfg.Shard; sh != nil {
		sd := sh.Desc
		if sd.Lo < 0 || sd.Hi < sd.Lo || sd.Hi > sd.Units {
			return nil, fmt.Errorf("journal: invalid %s", sd)
		}
		if got := cfg.PlanUnits(); got != sd.Hi-sd.Lo {
			return nil, fmt.Errorf("journal: shard config has %d units, %s spans %d", got, sd, sd.Hi-sd.Lo)
		}
		id.plan, id.full, id.shard = ShardPlanHash(sh.plan, sd), sh.plan, &sd
	} else {
		id.plan = cfg.PlanHash()
		id.full = id.plan
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	m, err := readManifest(dir, id)
	switch {
	case err == nil:
		if err := matchShard(dir, m, id); err != nil {
			return nil, err
		}
		if err := j.replayDir(cfg); err != nil {
			return nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		// Segments without a manifest were never bound to a plan: a merge
		// killed before its last step leaves them, and neither replaying them
		// nor writing beside them is safe.
		segs, _, err := segmentNames(dir)
		if err != nil {
			return nil, fmt.Errorf("journal: scan dir: %w", err)
		}
		if len(segs) > 0 {
			return nil, fmt.Errorf("journal: directory %s holds %d segments but no manifest (a merge that did not finish?): merge again into a fresh directory, or point the sweep at one",
				dir, len(segs))
		}
		if err := writeManifest(filepath.Join(dir, manifestName), id); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("journal: %w", err)
	}
	return j, nil
}

// parseManifest decodes and version-checks a manifest file's bytes.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest unreadable: %w", err)
	}
	switch {
	case m.Version == journalVersion:
		return m, nil
	case m.Version == 1 || m.Version == 2:
		reader := version1Reader
		if m.Version == 2 {
			reader = version2Reader
		}
		return m, fmt.Errorf("manifest version %d, which this binary no longer reads: resume or merge it with a binary built at commit %s, the last that reads version %d, or sweep again into a fresh directory",
			m.Version, reader, m.Version)
	}
	return m, fmt.Errorf("manifest version %d, this binary reads only version %d", m.Version, journalVersion)
}

// readManifest reads dir's manifest and checks what resume and merge both
// require of it: the version this binary reads, id's full plan and id's
// transport. A directory with no manifest gets an error that wraps
// os.ErrNotExist.
func readManifest(dir string, id journalIdentity) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, fmt.Errorf("read manifest: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return m, fmt.Errorf("directory %s: %w", dir, err)
	}
	// A shard manifest carries the full plan's hash beside its own; a
	// whole-plan manifest's plan hash is the full hash.
	full := m.PlanHash
	if m.Shard != nil {
		full = m.FullPlanHash
	}
	if want := fmt.Sprintf("%016x", id.full); full != want {
		return m, fmt.Errorf("directory %s holds a different sweep plan (its plan hash %s, this config's %s): resume and merge refuse to mix plans",
			dir, full, want)
	}
	got := m.Transport
	if got == "" { // udp is written as no transport at all
		got = "udp"
	}
	if got != id.transport {
		return m, fmt.Errorf("directory %s was swept over transport %q but this run uses %q: resume and merge refuse to mix transports; re-run with -transport %s or point the sweep at a fresh directory",
			dir, got, id.transport, got)
	}
	return m, nil
}

// matchShard checks a journal that readManifest passed — the opener's full
// plan and transport — against the rest of the opener's identity,
// distinguishing a shard journal opened as a whole plan (or vice versa) from
// the right plan but the wrong shard. Each gets its own error so the
// operator knows whether to pick a different directory or run the merge step.
func matchShard(dir string, m manifest, id journalIdentity) error {
	switch {
	case m.Shard != nil && id.shard == nil:
		return fmt.Errorf("journal: directory %s holds shard %d (units [%d,%d) of %d) of this plan, not the whole plan; merge shard journals into a fresh directory instead of resuming one directly",
			dir, m.Shard.Index, m.Shard.Lo, m.Shard.Hi, m.Shard.Units)
	case m.Shard == nil && id.shard != nil:
		return fmt.Errorf("journal: directory %s holds the whole plan, not %s; point the shard at its own directory",
			dir, *id.shard)
	case m.Shard != nil && id.shard != nil:
		have := ShardDesc{Index: m.Shard.Index, Lo: m.Shard.Lo, Hi: m.Shard.Hi, Units: m.Shard.Units}
		if have != *id.shard {
			return fmt.Errorf("journal: directory %s holds %s of this plan, asked to resume as %s: a shard journal resumes only as the same shard",
				dir, have, *id.shard)
		}
	}
	if m.PlanHash != fmt.Sprintf("%016x", id.plan) {
		// Same full plan and same shard shape, yet the bound hash differs —
		// only reachable if the hash scheme itself changed.
		return fmt.Errorf("journal: directory %s belongs to a different sweep plan (manifest %s, config %016x)",
			dir, m.PlanHash, id.plan)
	}
	return nil
}

// writeManifest creates the manifest atomically (temp file + rename) so a
// kill during journal creation never leaves a half-written identity.
func writeManifest(path string, id journalIdentity) error {
	m := manifest{Version: journalVersion, PlanHash: fmt.Sprintf("%016x", id.plan), Seed: id.seed}
	if id.transport != "udp" {
		// udp stays implicit so pre-transport journals and new ones agree
		// byte-for-byte on the default.
		m.Transport = id.transport
	}
	if id.shard != nil {
		m.FullPlanHash = fmt.Sprintf("%016x", id.full)
		m.Shard = &shardManifest{Index: id.shard.Index, Lo: id.shard.Lo, Hi: id.shard.Hi, Units: id.shard.Units}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("journal: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: commit manifest: %w", err)
	}
	return nil
}

// segmentNames lists a journal directory's segment files in replay order
// (sorted by name) and the highest segment number among them, -1 if none.
func segmentNames(dir string) ([]string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, -1, err
	}
	var segs []string
	maxIdx := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		segs = append(segs, name)
		num := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
		if idx, err := strconv.Atoi(num); err == nil && idx > maxIdx {
			maxIdx = idx
		}
	}
	sort.Strings(segs)
	return segs, maxIdx, nil
}

// replayDir reads every segment in name order into the replay index and
// positions the segment counter after the highest existing number.
func (j *Journal) replayDir(cfg *Config) error {
	t0 := time.Now()
	segs, maxIdx, err := segmentNames(j.dir)
	if err != nil {
		return fmt.Errorf("journal: scan dir: %w", err)
	}
	j.nextSeg = maxIdx + 1
	j.resumed = true
	ri := newReplayIndex(cfg)
	ix := indexer{ri: ri, st: &j.stats}
	for _, name := range segs {
		data, ok, err := readSegment(filepath.Join(j.dir, name))
		if err != nil {
			return err
		}
		j.stats.Segments++
		j.stats.Bytes += int64(len(data))
		ri.segs = append(ri.segs, data)
		if !ok || !ix.segment(uint32(len(ri.segs)-1), data) {
			j.stats.Torn++
		}
	}
	j.replayedAnswered, j.replayedFailures = ix.answered, ix.failedOnly
	if ix.answered+ix.failedOnly > 0 {
		j.replay = ri
	}
	j.stats.Open = time.Since(t0)
	return nil
}

// replayFor hands a sweep the replay index, nil when there is nothing (left)
// to replay. The index is positional, so a collector whose plan has a
// different shape than the one the journal was opened with is refused.
func (j *Journal) replayFor(cfg *Config) (*replayIndex, error) {
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	ri := j.replay
	j.mu.Unlock()
	if ri == nil {
		return nil, nil
	}
	if len(cfg.Targets) != ri.nTargets || len(cfg.queryTypes()) != len(ri.qtypes) || cfg.CanaryName() != ri.canary ||
		len(cfg.OpenResolvers) != ri.nResolvers || cfg.PlanUnits() != ri.nUnits {
		return nil, errors.New("journal: opened for a different plan than the sweep's config")
	}
	return ri, nil
}

// replayDone records that one sweep kind has replayed what it needed. Once
// all three have, nothing will read the index again and it is released —
// a daemon that keeps its Journal must not keep the last sweep's bytes.
func (j *Journal) replayDone(kinds ...sweepKind) {
	if j == nil {
		return
	}
	j.mu.Lock()
	for _, k := range kinds {
		j.kindsDone |= 1 << k
	}
	if j.kindsDone == 1<<sweepURs|1<<sweepCorrect|1<<sweepProtective {
		j.replay = nil
	}
	j.mu.Unlock()
}

// Resumed reports whether the journal carried prior state when opened.
func (j *Journal) Resumed() bool { return j.resumed }

// ReplayedAnswered returns how many distinct answered probes were restored
// from the journal.
func (j *Journal) ReplayedAnswered() int { return j.replayedAnswered }

// ReplayedFailures returns how many distinct probes were restored onto the
// failure book (answered probes with an older failure record not counted).
func (j *Journal) ReplayedFailures() int { return j.replayedFailures }

// ReplayStats returns what OpenJournal read from the directory; zero on a
// fresh journal.
func (j *Journal) ReplayStats() ReplayStats { return j.stats }

// Appended returns how many data records this process has appended. With an
// AppendHook installed the count is exact at every moment. Without one it is
// the number of records in frames already sealed and handed to the kernel —
// what a resume would find — and trails the workers by at most a checkpoint
// interval each; once every segment has been released (the sweep returned,
// interrupted or not) or the journal closed, the two meanings agree.
func (j *Journal) Appended() int64 { return j.appended.Load() }

// Close finishes the journal: parked segment writers are flushed and their
// files closed, and with SyncEvery enabled the directory entry is synced so
// freshly created segments survive a power loss.
func (j *Journal) Close() error {
	j.mu.Lock()
	idle := j.idle
	j.idle = nil
	j.replay = nil
	j.mu.Unlock()
	var firstErr error
	for _, s := range idle {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if j.opts.SyncEvery <= 0 {
		return firstErr
	}
	if err := syncDir(j.dir); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// newSegment opens the next append-only segment file. Each concurrent
// writer gets its own, so journal appends never serialize the pool.
func (j *Journal) newSegment() (*segmentWriter, error) {
	j.mu.Lock()
	idx := j.nextSeg
	j.nextSeg++
	j.mu.Unlock()
	path := filepath.Join(j.dir, fmt.Sprintf("%s%05d%s", segmentPrefix, idx, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create segment: %w", err)
	}
	return &segmentWriter{
		j: j, f: f,
		every: j.opts.checkpointEvery(),
		buf:   make([]byte, frameHeader, segBufHighwater+(4<<10)),
	}, nil
}

// acquireSegment hands a worker a segment writer: a parked one from an
// earlier sweep when available (appends just continue in the same file),
// else a freshly created segment. Pooling matters because every sweep of
// every run would otherwise pay a file create per worker.
func (j *Journal) acquireSegment() (*segmentWriter, error) {
	j.mu.Lock()
	if n := len(j.idle); n > 0 {
		s := j.idle[n-1]
		j.idle = j.idle[:n-1]
		j.mu.Unlock()
		return s, nil
	}
	j.mu.Unlock()
	return j.newSegment()
}

// releaseSegment flushes a writer's pending records — the graceful-drain
// guarantee at the end of each sweep — and parks it for the next acquirer.
// The file stays open; Journal.Close closes parked writers.
func (j *Journal) releaseSegment(s *segmentWriter) error {
	var err error
	if s.pending > 0 {
		err = s.checkpoint()
	}
	j.mu.Lock()
	j.idle = append(j.idle, s)
	j.mu.Unlock()
	return err
}

// segmentWriter appends records to one segment file, buffering up to
// CheckpointEvery records (or segBufHighwater bytes) into the frame that the
// next checkpoint seals and flushes. Not safe for concurrent use — every
// worker owns its segment exclusively.
type segmentWriter struct {
	j       *Journal
	f       *os.File
	every   int    // checkpoint interval, cached off the journal options
	buf     []byte // frame under construction: reserved header + records
	pending int    // records in buf
	count   uint64 // data records written to this segment overall
	ckpts   int    // checkpoints written, for the SyncEvery cadence
	// written is the file's length: buf[i] lands at offset written+i.
	written uint64
}

// appendData counts one freshly appended data record and checkpoints at the
// configured interval.
func (s *segmentWriter) appendData() error {
	s.count++
	s.pending++
	if hook := s.j.AppendHook; hook != nil {
		hook(s.j.appended.Add(1))
	}
	if s.pending >= s.every || len(s.buf) >= segBufHighwater {
		return s.checkpoint()
	}
	return nil
}

// checkpoint seals the pending records plus a cumulative-count marker into
// one CRC frame and flushes it to the kernel, making everything up to here
// survive process death. On the SyncEvery cadence (when enabled) it also
// fsyncs for power-loss durability.
func (s *segmentWriter) checkpoint() error {
	s.buf = append(s.buf, recCheckpoint)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, s.count)
	payload := s.buf[frameHeader:]
	binary.LittleEndian.PutUint32(s.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(s.buf[4:8], crc32.Checksum(payload, crcTable))
	// A partial write leaves a torn frame, which ends replay of the segment
	// before any record written after it, so what written counts past it is
	// never read.
	n, err := s.f.Write(s.buf)
	s.written += uint64(n)
	if err != nil {
		return fmt.Errorf("journal: segment write: %w", err)
	}
	s.buf = s.buf[:frameHeader]
	if s.j.AppendHook == nil {
		s.j.appended.Add(int64(s.pending))
	}
	s.pending = 0
	s.ckpts++
	if se := s.j.opts.SyncEvery; se > 0 && s.ckpts%se == 0 {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("journal: segment sync: %w", err)
		}
	}
	return nil
}

// Close checkpoints any pending records and closes the file — the graceful-
// drain flush every worker performs on its way out. With SyncEvery enabled
// the segment is fsynced so a finished sweep's records are power-loss safe.
func (s *segmentWriter) Close() error {
	var err error
	if s.pending > 0 {
		err = s.checkpoint()
	}
	if s.j.opts.SyncEvery > 0 {
		if serr := s.f.Sync(); err == nil && serr != nil {
			err = fmt.Errorf("journal: segment sync: %w", serr)
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// position appends a record's type and its probe's position.
func (s *segmentWriter) position(rec byte, p probePos) {
	s.buf = append(s.buf, rec)
	s.buf = binary.AppendUvarint(s.buf, uint64(p.unit))
	s.buf = binary.AppendUvarint(s.buf, uint64(p.slot))
}

// answered journals an answer with the response's wire bytes exactly as the
// server sent them (no re-pack — at 36M records the pack cost would dwarf
// the copy); replay feeds them back through the validated decoder, the same
// bytes the live sweep decoded. It returns the segment offset of the bytes,
// which a later reference to the same answer names; 0 when the offset is past
// what a reference can name.
func (s *segmentWriter) answered(p probePos, wire []byte) (uint32, error) {
	s.position(recAnswered, p)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(len(wire)))
	at := s.written + uint64(len(s.buf))
	s.buf = append(s.buf, wire...)
	if at > maxSegmentBytes {
		at = 0
	}
	return uint32(at), s.appendData()
}

// ref journals an answer whose bytes after the ID this segment already holds
// at offset at, where answered put them: it replays as that answer.
func (s *segmentWriter) ref(p probePos, at uint32) error {
	s.position(recRef, p)
	s.buf = binary.AppendUvarint(s.buf, uint64(at))
	return s.appendData()
}

// empty journals an answer the collector reads nothing from; it replays as
// answered, with nothing to decode.
func (s *segmentWriter) empty(p probePos) error {
	s.position(recEmpty, p)
	return s.appendData()
}

// failure journals one failure-book entry.
func (s *segmentWriter) failure(p probePos, class dnsio.FailClass) error {
	s.position(recFailure, p)
	s.buf = append(s.buf, byte(class))
	return s.appendData()
}

// readSegment reads one whole segment file into a buffer of exactly its
// size. ok is false for a segment too large to index, or whose size changes
// under the reader (someone is still appending, or truncated it): nothing in
// it is trusted, the caller counts it torn and its probes re-query.
func readSegment(path string) (data []byte, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("journal: open segment: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("journal: stat segment: %w", err)
	}
	if info.Size() > maxSegmentBytes {
		return nil, false, nil
	}
	data = make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err == io.ErrUnexpectedEOF || err == io.EOF {
		return nil, false, nil
	} else if err != nil {
		return nil, false, fmt.Errorf("journal: read segment: %w", err)
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n > 0 {
		return nil, false, nil
	}
	return data, true, nil
}

// indexer is the state of OpenJournal's one pass over the segments.
type indexer struct {
	ri *replayIndex
	st *ReplayStats

	// wires has a bit per byte of the current segment, set where an
	// answered record's bytes start: the offsets a reference may name.
	wires []uint64

	answered   int // distinct answered probes
	failedOnly int // distinct probes with a failure record and no answer
}

// segment folds one segment's records into the index and reports whether the
// segment was clean. Corruption — a short frame, a CRC mismatch, a record
// that fails to decode, or a checkpoint marker whose count disagrees —
// truncates the replay at that point: the tail is ignored, never trusted.
func (ix *indexer) segment(seg uint32, data []byte) bool {
	var count uint64
	if n := (len(data) + 63) / 64; cap(ix.wires) < n {
		ix.wires = make([]uint64, n)
	} else {
		ix.wires = ix.wires[:n]
		clear(ix.wires)
	}
	for off := 0; off < len(data); {
		if len(data)-off < frameHeader {
			return false
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		off += frameHeader
		if length > maxJournalFrame || len(data)-off < length {
			return false
		}
		if crc32.Checksum(data[off:off+length], crcTable) != sum {
			return false
		}
		if !ix.frame(seg, data, off, off+length, &count) {
			return false
		}
		ix.st.Frames++
		off += length
	}
	return true
}

// frame folds one CRC-verified frame, data[off:end], into the index. A frame
// carries a whole checkpoint interval: data records back to back, then the
// checkpoint marker whose cumulative count must agree with the records
// decoded so far — a cheap structural check on top of the CRC.
//
// Replay rules: the first answered record of a probe, in segment order, wins
// — an empty one as much as one with bytes, a reference as much as either; a
// failure record never displaces an answer, whichever came first; a record
// whose position is past the config's units or the unit's span (a hostile or
// mis-merged directory) is counted and ignored. A reference must name the
// bytes of an earlier answered record of the same segment, whatever that
// record's position, and replays as those bytes; one that names anything else
// — a later offset, its own, the middle of a record, or an offset in another
// segment or past a torn frame — ends the frame as corrupt. Replay never reads
// the referenced bytes' ID. A record type the reader does not know — version
// 1's keyed types among them — ends the frame as corrupt.
func (ix *indexer) frame(seg uint32, data []byte, off, end int, count *uint64) bool {
	ri := ix.ri
	for off < end {
		rec := data[off]
		off++
		var id int
		switch rec {
		case recCheckpoint:
			if end-off < 8 || binary.LittleEndian.Uint64(data[off:]) != *count {
				return false
			}
			off += 8
			continue
		case recAnswered, recEmpty, recFailure, recRef:
			unit, n := binary.Uvarint(data[off:end])
			if n <= 0 {
				return false
			}
			off += n
			slot, n := binary.Uvarint(data[off:end])
			if n <= 0 {
				return false
			}
			off += n
			id = ri.posID(unit, slot)
		default:
			return false
		}
		var class uint8
		var wireOff int
		switch rec {
		case recFailure:
			if end-off < 1 {
				return false
			}
			class = data[off]
			off++
		case recAnswered:
			if end-off < 4 {
				return false
			}
			wireLen := int(binary.LittleEndian.Uint32(data[off:]))
			wireOff = off + 4
			if end-wireOff < wireLen {
				return false
			}
			off = wireOff + wireLen
			ix.wires[wireOff/64] |= 1 << (wireOff % 64)
		case recEmpty:
			wireOff = emptyOff
		case recRef:
			at, n := binary.Uvarint(data[off:end])
			if n <= 0 || at >= uint64(len(data)) || ix.wires[at/64]&(1<<(at%64)) == 0 {
				return false
			}
			off += n
			wireOff = int(at)
		}
		*count++
		ix.st.Records++

		switch {
		case id < 0:
			ix.st.OutOfPlan++
		case wireOff == 0: // a failure record
			if ri.fail[id] == 0 && ri.loc[id].off == 0 {
				ix.failedOnly++
			}
			// Classes past the last named one all read "other"; folding them
			// keeps class+1 inside the byte.
			ri.fail[id] = 1 + min(class, uint8(dnsio.FailOther))
		case ri.loc[id].off != 0:
			ix.st.Duplicates++
		default:
			ri.loc[id] = wireLoc{seg: seg, off: uint32(wireOff)}
			ix.answered++
			if wireOff == emptyOff {
				ix.st.Empty++
			}
			if ri.fail[id] != 0 {
				ix.failedOnly--
			}
		}
	}
	return true
}

// MergeStats summarises a shard-journal merge.
type MergeStats struct {
	Dirs     int   // shard directories merged
	Segments int   // segment files linked
	Bytes    int64 // bytes in the linked segments
}

// MergeShardJournals combines per-shard journal directories into one fresh
// whole-plan journal at dst. The merge is structural: each source's segments
// are hard-linked (renumbered sequentially) into dst and a whole-plan manifest
// is written, after which OpenJournal(dst, cfg, ...) replays them through the
// ordinary resume path — first-wins on duplicate probes (re-swept stolen
// tails), answered-beats-failed, missing probes live-swept. That replay is
// the merge semantics; this function only validates that the pieces belong
// together:
//
//   - every source manifest must pass the check a resume makes first
//     (readManifest): this binary's format version, cfg's full plan hash
//     (shard journals via full_plan_hash, whole-plan journals directly) and
//     cfg's transport;
//   - shard descriptors must agree on the unit total and, unioned, cover
//     every unit in [0, PlanUnits) — a gap means a shard journal is missing
//     and the merged report would silently re-sweep (or worse, under a
//     shard worker, drop) its probes.
//
// Overlapping shards are fine (work stealing re-sweeps stolen tails on
// purpose); duplicate records resolve first-wins at replay.
//
// A link shares its segment with the shard directory instead of copying it,
// which is safe because a journal only ever appends to segments it created:
// neither a resume of dst nor one of a shard writes to a segment the other
// holds. dst must be on the same filesystem as every source; the fleet puts
// it beside the shard directories.
func MergeShardJournals(dst string, cfg *Config, srcDirs []string) (MergeStats, error) {
	var st MergeStats
	if len(srcDirs) == 0 {
		return st, fmt.Errorf("journal: merge: no source directories")
	}
	kind, err := transportpkg.ParseKind(cfg.TransportKind)
	if err != nil {
		return st, fmt.Errorf("journal: merge: %w", err)
	}
	id := journalIdentity{plan: cfg.PlanHash(), full: cfg.PlanHash(), seed: cfg.Seed, transport: kind.String()}
	units := cfg.PlanUnits()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return st, fmt.Errorf("journal: merge: create %s: %w", dst, err)
	}
	mpath := filepath.Join(dst, manifestName)
	if _, err := os.Stat(mpath); err == nil {
		return st, fmt.Errorf("journal: merge: %s already holds a journal; merge into a fresh directory", dst)
	} else if !os.IsNotExist(err) {
		return st, fmt.Errorf("journal: merge: stat %s: %w", mpath, err)
	}

	// Validate every source before copying anything.
	type interval struct{ lo, hi int }
	var covered []interval
	for _, src := range srcDirs {
		m, err := readManifest(src, id)
		if err != nil {
			return st, fmt.Errorf("journal: merge: %w", err)
		}
		if m.Shard == nil {
			// A whole-plan journal merges as the full range.
			covered = append(covered, interval{0, units})
			continue
		}
		if m.Shard.Units != units {
			return st, fmt.Errorf("journal: merge: %s was cut from a %d-unit plan, this config has %d units",
				src, m.Shard.Units, units)
		}
		covered = append(covered, interval{m.Shard.Lo, m.Shard.Hi})
	}
	sort.Slice(covered, func(i, k int) bool {
		if covered[i].lo != covered[k].lo {
			return covered[i].lo < covered[k].lo
		}
		return covered[i].hi < covered[k].hi
	})
	reach := 0
	for _, iv := range covered {
		if iv.lo > reach {
			return st, fmt.Errorf("journal: merge: shard journals leave units [%d,%d) uncovered — a shard directory is missing",
				reach, iv.lo)
		}
		if iv.hi > reach {
			reach = iv.hi
		}
	}
	if reach < units {
		return st, fmt.Errorf("journal: merge: shard journals leave units [%d,%d) uncovered — a shard directory is missing",
			reach, units)
	}

	// Link segments, renumbered into one sequence. Per-source segment order
	// is preserved (sorted by name, as replay reads them); cross-source
	// order is the srcDirs order, which does not matter — the replay rule
	// set (first-wins answered, answered-beats-failed) is order-insensitive
	// for the report because duplicate answers for one probe carry the same
	// deterministic response bytes.
	//
	// A merge killed part-way must not leave a journal that replays a
	// partial merge as whole: a link lands under its name whole or not at
	// all, and the manifest that makes the directory a journal is written
	// only after every link is synced in. Until then OpenJournal refuses the
	// directory.
	next := 0
	for _, src := range srcDirs {
		segs, _, err := segmentNames(src)
		if err != nil {
			return st, fmt.Errorf("journal: merge: scan %s: %w", src, err)
		}
		for _, name := range segs {
			in := filepath.Join(src, name)
			fi, err := os.Stat(in)
			if err == nil {
				err = os.Link(in, filepath.Join(dst, fmt.Sprintf("%s%05d%s", segmentPrefix, next, segmentSuffix)))
			}
			if err != nil {
				return st, fmt.Errorf("journal: merge: link %s: %w", in, err)
			}
			next++
			st.Segments++
			st.Bytes += fi.Size()
		}
		st.Dirs++
	}
	if err := syncDir(dst); err != nil {
		return st, fmt.Errorf("journal: merge: %w", err)
	}
	if err := writeManifest(mpath, id); err != nil {
		return st, err
	}
	if err := syncDir(dst); err != nil {
		return st, fmt.Errorf("journal: merge: %w", err)
	}
	return st, nil
}

// syncDir fsyncs a directory, making the entries created and renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
