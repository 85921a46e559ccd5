// Package urwatch turns URHunter's one-shot measurement into a continuously
// updated verdict feed: a scheduler re-sweeps a world on an interval, each
// sweep's classified records are sealed into an immutable generation of a
// flat verdict store, a differ emits an append-only event log between
// consecutive generations, and two front-ends — an HTTP/JSON API and a
// DNSBL-style DNS zone — serve the current generation under load.
//
// The consistency argument is the generation pointer: every query (HTTP or
// DNS) dereferences the store's atomic generation pointer exactly once and
// answers entirely out of that immutable snapshot, so a reader concurrent
// with a publish observes generation N or N+1, never a torn mix. Writers
// never touch a published generation; they build the next one off to the
// side and swap it in with a single atomic store.
//
// # Flat layout
//
// A sealed generation is a handful of contiguous slices, not maps of
// pointers. Every verdict is one fixed-size verdictRec whose string fields
// are uint32 references into a deduplicated string table and whose
// corresponding-IP set is an (offset, length) span into one packed
// []netip.Addr. The record array is sorted by (domain, server, type, rdata),
// so the domain index is the array itself — a lookup is two binary searches
// bounding the domain's contiguous run. The IP index is a single sorted
// (addr, record) array answered the same way. Readers never follow a
// per-verdict pointer and never touch a map; at paper scale and beyond this
// is the difference between GBs of GC-scanned pointer graph and a few large
// pointer-free allocations the collector skips over.
//
// The seal reads a sweep's records in place, sorts positions into them, drops
// repeated identities and compiles the flat form once; a publish equal to the
// current generation keeps the current tables. The flat form is
// also what the binary snapshot format (snapshot.go) serializes —
// section-per-slice — which is why a restarted daemon can serve the previous
// generation in milliseconds.
package urwatch

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dns"
)

// AppendKey appends the §5.1 identity tuple key — the event log's canonical
// key format — to dst and returns the extended slice. It allocates only when
// dst lacks capacity, which is what keeps it off the build and lookup hot
// paths' allocation profiles.
func AppendKey(dst []byte, server netip.Addr, domain dns.Name, typ dns.Type, rdata string) []byte {
	dst = server.AppendTo(dst)
	dst = append(dst, '|')
	// The key's domain field is the display form (fmt's %s used to invoke
	// Name.String()); mirror it exactly so logged keys stay stable.
	if domain == dns.Root {
		dst = append(dst, '.')
	} else {
		dst = append(dst, domain...)
		dst = append(dst, '.')
	}
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, uint64(uint16(typ)), 10)
	dst = append(dst, '|')
	dst = append(dst, rdata...)
	return dst
}

// verdict flag bits.
const (
	flagByIntel = 1 << 0
	flagByIDS   = 1 << 1
)

// verdictRec is the arena-packed form of one verdict — the served
// classification of one undelegated record, identified by the paper's §5.1
// tuple (server, domain, type, rdata): fixed size, pointer free (netip.Addr
// aside), with every string a reference into the owning generation's table
// and the corresponding-IP set (§4.3) a span into its packed address arena.
type verdictRec struct {
	server   netip.Addr
	domain   uint32
	rdata    uint32
	nsHost   uint32
	provider uint32
	reason   uint32
	ipOff    uint32
	ipLen    uint32
	ttl      uint32
	typ      dns.Type
	category uint8
	flags    uint8
}

// ipEntry is one row of the flat IP index: address → record ordinal.
type ipEntry struct {
	addr netip.Addr
	rec  uint32
}

// ProviderStats aggregates one provider's verdict counts in a generation.
type ProviderStats struct {
	Provider string         `json:"provider"`
	Total    int            `json:"total"`
	Counts   map[string]int `json:"counts"`
}

// Generation is one immutable snapshot of the verdict feed. All fields are
// written by one seal (or the snapshot loader; Publish may swap in equal
// tables first) and never mutated after; readers need no locks.
type Generation struct {
	// Seq is the generation number, monotonically increasing from 1 (the
	// store's empty initial generation is 0).
	Seq uint64
	// SweptAt stamps when the generation's sweep completed.
	SweptAt time.Time
	// Queries and Coverage carry the producing sweep's measurement books,
	// served by the health endpoints.
	Queries  int64
	Coverage *core.Coverage

	// strs is the deduplicated string table; strs[0] is always "".
	strs []string
	// recs is the packed verdict array, sorted by (domain, server, type,
	// rdata) — domain runs are contiguous, and within a run the order is
	// the feed's canonical (server, type, rdata).
	recs []verdictRec
	// ipTab is the packed corresponding-IP arena; recs reference spans.
	ipTab []netip.Addr
	// ipIdx maps addresses to record ordinals, sorted by (addr, canonical
	// record order) so per-address runs serve in the same order the map-era
	// per-IP slices did.
	ipIdx []ipEntry
	// provs is the per-provider aggregate, sorted by name — precomputed at
	// the seal so Providers() is a plain slice return.
	provs  []*ProviderStats
	counts [4]int
}

// Total returns the verdict count.
func (g *Generation) Total() int { return len(g.recs) }

// Count returns how many verdicts carry the category.
func (g *Generation) Count(c core.Category) int {
	if c < 0 || int(c) >= len(g.counts) {
		return 0
	}
	return g.counts[c]
}

// str resolves a string-table reference.
func (g *Generation) str(id uint32) string { return g.strs[id] }

// domainOf returns record i's domain without materializing anything.
func (g *Generation) domainOf(i int) dns.Name { return dns.Name(g.strs[g.recs[i].domain]) }

// VerdictSet is a read-only view of the verdicts answering one query: a
// contiguous run either of the record array (domain lookups) or of the IP
// index (address lookups). The zero VerdictSet is empty.
type VerdictSet struct {
	g      *Generation
	lo, hi int
	byIP   bool
}

// Len returns the number of verdicts in the set.
func (s VerdictSet) Len() int { return s.hi - s.lo }

// At returns the i'th verdict of the set, in the feed's canonical order.
func (s VerdictSet) At(i int) VerdictView {
	if s.byIP {
		return VerdictView{g: s.g, i: int(s.g.ipIdx[s.lo+i].rec)}
	}
	return VerdictView{g: s.g, i: s.lo + i}
}

// VerdictView is a handle on one verdict inside a sealed generation. Field
// accessors read straight out of the flat arrays; nothing is materialized.
type VerdictView struct {
	g *Generation
	i int
}

// Domain returns the verdict's domain.
func (v VerdictView) Domain() dns.Name { return dns.Name(v.g.str(v.g.recs[v.i].domain)) }

// Type returns the record type.
func (v VerdictView) Type() dns.Type { return v.g.recs[v.i].typ }

// RData returns the record data.
func (v VerdictView) RData() string { return v.g.str(v.g.recs[v.i].rdata) }

// TTL returns the record TTL.
func (v VerdictView) TTL() uint32 { return v.g.recs[v.i].ttl }

// Server returns the serving nameserver address.
func (v VerdictView) Server() netip.Addr { return v.g.recs[v.i].server }

// NSHost returns the serving nameserver's hostname.
func (v VerdictView) NSHost() dns.Name { return dns.Name(v.g.str(v.g.recs[v.i].nsHost)) }

// Provider returns the hosting provider name.
func (v VerdictView) Provider() string { return v.g.str(v.g.recs[v.i].provider) }

// Category returns the classification.
func (v VerdictView) Category() core.Category { return core.Category(v.g.recs[v.i].category) }

// Reason returns the exclusion reason for correct verdicts.
func (v VerdictView) Reason() core.CorrectReason {
	return core.CorrectReason(v.g.str(v.g.recs[v.i].reason))
}

// ByIntel reports threat-intel evidence.
func (v VerdictView) ByIntel() bool { return v.g.recs[v.i].flags&flagByIntel != 0 }

// ByIDS reports IDS evidence.
func (v VerdictView) ByIDS() bool { return v.g.recs[v.i].flags&flagByIDS != 0 }

// IPs returns the verdict's corresponding-IP span. The slice aliases the
// generation's packed arena — callers must not mutate it.
func (v VerdictView) IPs() []netip.Addr {
	r := v.g.recs[v.i]
	if r.ipLen == 0 {
		return nil
	}
	return v.g.ipTab[r.ipOff : r.ipOff+r.ipLen : r.ipOff+r.ipLen]
}

// Key returns the verdict's canonical identity key.
func (v VerdictView) Key() string {
	r := v.g.recs[v.i]
	return string(AppendKey(make([]byte, 0, 64), r.server, v.Domain(), r.typ, v.RData()))
}

// Domain returns every verdict for a domain as a contiguous run of the
// record array (empty set when unlisted).
func (g *Generation) Domain(d dns.Name) VerdictSet { return domainRun(g, d) }

// domainRun is the lookup behind Domain, for a name held as a dns.Name or
// still in the byte buffer it was parsed into: the wire answer path looks
// names up without allocating a dns.Name for them (a string(d) conversion
// that only feeds a comparison does not allocate).
func domainRun[S dns.Name | []byte](g *Generation, d S) VerdictSet {
	lo := sort.Search(len(g.recs), func(i int) bool { return g.strs[g.recs[i].domain] >= string(d) })
	if lo == len(g.recs) || g.strs[g.recs[lo].domain] != string(d) {
		return VerdictSet{g: g, lo: lo, hi: lo} // unlisted, the common case: no second search
	}
	hi := lo + sort.Search(len(g.recs)-lo, func(i int) bool { return g.strs[g.recs[lo+i].domain] > string(d) })
	return VerdictSet{g: g, lo: lo, hi: hi}
}

// IP returns every verdict whose corresponding IPs include addr, as a
// contiguous run of the IP index.
func (g *Generation) IP(addr netip.Addr) VerdictSet {
	lo := sort.Search(len(g.ipIdx), func(i int) bool { return g.ipIdx[i].addr.Compare(addr) >= 0 })
	hi := lo + sort.Search(len(g.ipIdx)-lo, func(i int) bool { return g.ipIdx[lo+i].addr.Compare(addr) > 0 })
	return VerdictSet{g: g, lo: lo, hi: hi, byIP: true}
}

// Provider returns a provider's aggregate stats (binary search over the
// sorted precomputed slice).
func (g *Generation) Provider(name string) (*ProviderStats, bool) {
	i := sort.Search(len(g.provs), func(i int) bool { return g.provs[i].Provider >= name })
	if i < len(g.provs) && g.provs[i].Provider == name {
		return g.provs[i], true
	}
	return nil, false
}

// Providers returns every provider's stats, sorted by name. The slice is
// precomputed at the seal and shared with the generation — callers must not
// mutate it.
func (g *Generation) Providers() []*ProviderStats { return g.provs }

// SizeBytes returns the flat layout's retained footprint: the packed record
// array, string table (headers + bytes), IP arena and index, and provider
// aggregates. This is the accounting behind the bytes_per_verdict metric.
func (g *Generation) SizeBytes() int {
	size := len(g.recs) * int(unsafe.Sizeof(verdictRec{}))
	size += len(g.strs) * int(unsafe.Sizeof(""))
	for _, s := range g.strs {
		size += len(s)
	}
	size += len(g.ipTab) * int(unsafe.Sizeof(netip.Addr{}))
	size += len(g.ipIdx) * int(unsafe.Sizeof(ipEntry{}))
	for _, p := range g.provs {
		size += int(unsafe.Sizeof(*p)) + len(p.Provider)
		for k := range p.Counts {
			size += len(k) + 16
		}
	}
	return size
}

// categoryRank orders categories by severity for worst-of folds.
func categoryRank(c core.Category) int {
	switch c {
	case core.CategoryMalicious:
		return 3
	case core.CategoryUnknown:
		return 2
	case core.CategoryProtective:
		return 1
	}
	return 0
}

// WorstCategory folds a verdict set to its most severe classification with
// the feed's precedence: malicious > unknown (suspicious) > protective >
// correct. ok is false for an empty set.
func WorstCategory(vs VerdictSet) (core.Category, bool) {
	if vs.Len() == 0 {
		return core.CategoryCorrect, false
	}
	worst := vs.At(0).Category()
	rank := categoryRank(worst)
	// Nothing outranks malicious: a heavily listed name stops at its first.
	for i := 1; i < vs.Len() && worst != core.CategoryMalicious; i++ {
		if c := vs.At(i).Category(); categoryRank(c) > rank {
			worst, rank = c, categoryRank(c)
		}
	}
	return worst, true
}

// storeInterner canonicalizes the strings packed into generation tables.
// Package-level on purpose: consecutive generations observe mostly the same
// domains, rdata, and hosts, so sharing one interner across sweeps makes
// their tables reference the same backing bytes instead of re-materializing
// them every interval.
var storeInterner = newInterner()

const (
	// internMaxLen bounds the strings worth interning: one longer (a long TXT
	// blob) is almost certainly unique, so storing it deduplicates nothing.
	internMaxLen = 256
	// internCap bounds the table: a hostile zone could serve millions of
	// distinct short strings, and past the cap Intern returns its argument.
	internCap = 1 << 20
)

// interner is a capped string-interning table under one lock. Its callers
// build and load generations, a few per sweep interval, so nothing contends.
type interner struct {
	mu sync.Mutex
	m  map[string]string
}

func newInterner() *interner { return &interner{m: make(map[string]string)} }

// Intern returns the canonical instance of s, registering s when the table
// has room; the empty string, one past internMaxLen and, in a full table, a
// new one come back as passed. Safe for concurrent use.
func (in *interner) Intern(s string) string {
	if len(s) == 0 || len(s) > internMaxLen {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.m[s]; ok {
		return v
	}
	if len(in.m) < internCap {
		in.m[s] = s
	}
	return s
}

// seal compiles records, read in place and never written, into a generation:
// the sorted record array, the string table, the IP arena and index, and the
// provider aggregates. Record order: (domain, server, type, rdata).
// Domain-major makes the sorted array its own domain index; within a domain
// the order is the feed's canonical (server, type, rdata), exactly what the
// map-era per-domain slices served. Positions are sorted, not the records,
// and stably, so the first of each identity leads its run and is the one
// kept (the pipeline's canonical sort makes the first the canonical one).
func seal(urs []*core.UR, seq uint64, sweptAt time.Time) *Generation {
	all := make([]int32, len(urs))
	for i := range all {
		all[i] = int32(i)
	}
	slices.SortStableFunc(all, func(i, j int32) int {
		x, y := urs[i], urs[j]
		if c := cmp.Compare(x.Domain, y.Domain); c != 0 {
			return c
		}
		if c := x.Server.Addr.Compare(y.Server.Addr); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Type, y.Type); c != 0 {
			return c
		}
		return cmp.Compare(x.RData, y.RData)
	})
	all = slices.CompactFunc(all, func(i, j int32) bool {
		x, y := urs[i], urs[j]
		return x.Domain == y.Domain && x.Server.Addr == y.Server.Addr && x.Type == y.Type && x.RData == y.RData
	})

	g := &Generation{Seq: seq, SweptAt: sweptAt}
	g.strs = []string{""}
	ids := map[string]uint32{"": 0}
	sid := func(s string) uint32 {
		if id, ok := ids[s]; ok {
			return id
		}
		s = storeInterner.Intern(s)
		id := uint32(len(g.strs))
		g.strs = append(g.strs, s)
		ids[s] = id
		return id
	}

	g.recs = make([]verdictRec, len(all))
	provByName := make(map[string]*ProviderStats)
	nIPs := 0
	for _, ui := range all {
		nIPs += len(urs[ui].CorrespondingIPs)
	}
	g.ipTab = make([]netip.Addr, 0, nIPs)
	g.ipIdx = make([]ipEntry, 0, nIPs)
	for i, ui := range all {
		u := urs[ui]
		var flags uint8
		if u.MaliciousByIntel {
			flags |= flagByIntel
		}
		if u.MaliciousByIDS {
			flags |= flagByIDS
		}
		g.recs[i] = verdictRec{
			server:   u.Server.Addr,
			domain:   sid(string(u.Domain)),
			rdata:    sid(u.RData),
			nsHost:   sid(string(u.Server.Host)),
			provider: sid(u.Server.Provider),
			reason:   sid(string(u.Reason)),
			ipOff:    uint32(len(g.ipTab)),
			ipLen:    uint32(len(u.CorrespondingIPs)),
			ttl:      u.TTL,
			typ:      u.Type,
			category: uint8(u.Category),
			flags:    flags,
		}
		g.ipTab = append(g.ipTab, u.CorrespondingIPs...)
		for _, ip := range u.CorrespondingIPs {
			g.ipIdx = append(g.ipIdx, ipEntry{addr: ip, rec: uint32(i)})
		}
		ps := provByName[u.Server.Provider]
		if ps == nil {
			ps = &ProviderStats{Provider: u.Server.Provider, Counts: make(map[string]int)}
			provByName[u.Server.Provider] = ps
		}
		ps.Total++
		ps.Counts[u.Category.String()]++
		if u.Category >= 0 && int(u.Category) < len(g.counts) {
			g.counts[u.Category]++
		}
	}
	// Per-address runs serve in the feed's canonical (server, domain, type,
	// rdata) order — the order the map-era per-IP slices were sorted into.
	sort.Slice(g.ipIdx, func(i, j int) bool {
		a, b := g.ipIdx[i], g.ipIdx[j]
		if cmp := a.addr.Compare(b.addr); cmp != 0 {
			return cmp < 0
		}
		return g.recCanonLess(int(a.rec), int(b.rec))
	})
	g.provs = make([]*ProviderStats, 0, len(provByName))
	for _, ps := range provByName {
		g.provs = append(g.provs, ps)
	}
	sort.Slice(g.provs, func(i, j int) bool { return g.provs[i].Provider < g.provs[j].Provider })
	return g
}

// sharesTables reports whether Publish gave g and o one set of tables; every
// seal and load allocates its own string table (it always holds "").
func (g *Generation) sharesTables(o *Generation) bool {
	return unsafe.SliceData(g.strs) == unsafe.SliceData(o.strs)
}

// recCanonLess orders two records by the feed's canonical (server, domain,
// type, rdata) tuple.
func (g *Generation) recCanonLess(i, j int) bool {
	a, b := &g.recs[i], &g.recs[j]
	if cmp := a.server.Compare(b.server); cmp != 0 {
		return cmp < 0
	}
	if da, db := g.str(a.domain), g.str(b.domain); da != db {
		return da < db
	}
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	return g.str(a.rdata) < g.str(b.rdata)
}

// SnapshotFromResult seals a generation from one pipeline run's classified
// output, reading res.URs in place; it is the one way to build a generation
// (the snapshot loader restores one). Every collected UR becomes a verdict;
// the sweep's query and coverage books ride along for the health endpoints.
func SnapshotFromResult(res *core.Result, seq uint64, sweptAt time.Time) *Generation {
	g := seal(res.URs, seq, sweptAt)
	g.Queries = res.Queries
	g.Coverage = res.Coverage
	return g
}

// Store holds the current generation behind an atomic pointer. Reads are
// lock-free: Current is a single atomic load, and everything reachable from
// the returned generation is immutable. Publish is serialized by a writer
// mutex (the watcher is the only writer in practice, but correctness does
// not depend on that).
//
// Beyond the current generation the store also tracks the two degradation
// signals of the staleness health machine (consecutive sweep failures and
// generation age — see staleness.go) and retains a short ring of recent
// generations so the zone-transfer front-end can serve IXFR deltas keyed by
// SOA serial (see xfr.go).
type Store struct {
	gen atomic.Pointer[Generation]
	mu  sync.Mutex
	log *EventLog

	// policy is the staleness/mirroring configuration; nil preserves the
	// pre-policy behaviour (never stale, static SOA timers).
	policy atomic.Pointer[StalenessPolicy]
	// ring retains recent generations, oldest first, current last. Guarded
	// by mu; readers copy the slice header under the lock (transfers are
	// rare — the per-query hot path never touches it).
	ring []*Generation
	// failStreak counts sweep failures since the last publish; lastErr is
	// the most recent failure's message (nil after a success).
	failStreak atomic.Int64
	lastErr    atomic.Pointer[string]
}

// NewStore creates a store serving an empty generation 0 with a fresh event
// log.
func NewStore() *Store {
	s := &Store{log: NewEventLog()}
	g := seal(nil, 0, time.Time{})
	s.gen.Store(g)
	s.ring = []*Generation{g}
	return s
}

// Current returns the live generation. Never nil.
func (s *Store) Current() *Generation { return s.gen.Load() }

// Log returns the store's append-only event log.
func (s *Store) Log() *EventLog { return s.log }

// SetPolicy installs the staleness/mirroring policy. Call before serving;
// the policy is read atomically, so replacing it mid-serve is safe but the
// struct itself must not be mutated after installation.
func (s *Store) SetPolicy(p StalenessPolicy) {
	s.policy.Store(&p)
}

// Policy returns the installed policy, or nil when none was set.
func (s *Store) Policy() *StalenessPolicy { return s.policy.Load() }

// NoteSweepFailure records one failed sweep and returns the consecutive
// failure count. The watcher calls this on every sweep error; the streak
// resets at the next successful publish.
func (s *Store) NoteSweepFailure(err error) int {
	n := s.failStreak.Add(1)
	if err != nil {
		msg := err.Error()
		s.lastErr.Store(&msg)
	}
	return int(n)
}

// Staleness folds the store's degradation signals into a health reading at
// time now (pass the policy clock's reading, or time.Now()).
func (s *Store) Staleness(now time.Time) Staleness {
	g := s.Current()
	p := s.policy.Load()
	st := Staleness{
		Generation:          g.Seq,
		ConsecutiveFailures: int(s.failStreak.Load()),
	}
	if msg := s.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	if !g.SweptAt.IsZero() && now.After(g.SweptAt) {
		st.Age = now.Sub(g.SweptAt)
	}
	if p != nil {
		st.MaxStaleness = p.MaxStaleness
	}
	switch {
	case st.MaxStaleness > 0 && (g.SweptAt.IsZero() || st.Age >= st.MaxStaleness):
		// An unswept initial generation under a staleness bound is stale by
		// definition: there is nothing fresh to serve.
		st.State = StateStale
	case st.ConsecutiveFailures >= p.degradedAfter():
		st.State = StateDegraded
	default:
		st.State = StateOK
	}
	return st
}

// Publish diffs the next generation against the current one, appends the
// resulting events to the log, and atomically swaps next in. It returns the
// diff. Readers concurrent with Publish see the old or the new generation in
// full — the swap is the linearization point. A publish also resets the
// sweep-failure streak and appends next to the IXFR retention ring.
//
// A next whose records all equal the current ones in every field takes the
// current tables before it is visible and keeps its header (Seq, SweptAt,
// Queries, Coverage); the caller must not read next meanwhile.
func (s *Store) Publish(next *Generation) *GenDiff {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.gen.Load()
	d := Diff(prev, next)
	if d.same && !slices.Contains(s.ring, next) {
		next.strs, next.recs, next.ipTab, next.ipIdx = prev.strs, prev.recs, prev.ipTab, prev.ipIdx
		next.provs, next.counts = prev.provs, prev.counts
	}
	s.log.Append(d)
	s.gen.Store(next)
	s.appendRingLocked(next)
	s.failStreak.Store(0)
	s.lastErr.Store(nil)
	return d
}

// Restore swaps a previously sealed generation in without diffing — the
// cold-start path. A snapshot-loaded generation's changes were already
// logged by the process that published it, so re-announcing them here would
// double-count; the event log simply resumes at the next real publish. The
// retention ring restarts at the restored generation: a restarted daemon has
// no older generations to derive IXFR deltas from, so secondaries behind it
// fall back to AXFR once and then track incrementally again.
func (s *Store) Restore(g *Generation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.Store(g)
	s.ring = []*Generation{g}
}

// appendRingLocked retains g in the generation ring, trimming the oldest
// entries past the policy's Retain bound. Caller holds s.mu.
func (s *Store) appendRingLocked(g *Generation) {
	s.ring = append(s.ring, g)
	if over := len(s.ring) - s.policy.Load().retain(); over > 0 {
		// Copy down rather than re-slice so the dropped heads are collectable.
		n := copy(s.ring, s.ring[over:])
		for i := n; i < len(s.ring); i++ {
			s.ring[i] = nil
		}
		s.ring = s.ring[:n]
	}
}

// ChainFromSerial returns the retained generations from the one whose SOA
// serial equals serial through the current generation, oldest first. ok is
// false when the serial predates the retention window (or never existed) —
// the caller must fall back to a full transfer.
func (s *Store) ChainFromSerial(serial uint32) (chain []*Generation, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, g := range s.ring {
		if SerialForSeq(g.Seq) == serial {
			return append([]*Generation(nil), s.ring[i:]...), true
		}
	}
	return nil, false
}
