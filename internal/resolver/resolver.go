// Package resolver implements iterative DNS resolution over the simulated
// delegation hierarchy, plus the worldwide open-resolver population URHunter
// uses to collect geo-distributed correct records (§4.1). A Recursive walks
// root → TLD → authoritative exactly like a real resolver: it follows
// referrals, uses glue, resolves glueless NS hosts out-of-band, chases CNAME
// chains, and caches positive and negative answers by TTL.
//
// It also caches what every deployed resolver caches: the zone cuts its walks
// cross. A walk starts at the closest enclosing cut it knows instead of at
// the roots. A Pool's resolvers share one table of cuts, because a referral
// from the root or a TLD does not depend on who asked, and one store of
// response contents, because most of them receive the same answers; what a
// resolver has cached, and until when, stays its own (see shared). For the
// same reason they share a memo of the upstream answers resolutions ended
// on: a resolution that receives an answer's bytes again books the answer
// stored for them, without decoding them. An open resolver replies to a
// plain query with the bytes its answer is stored under, behind the query's
// own header word.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// Limits for the iteration loop.
const (
	maxReferralHops = 24
	maxCNAMEHops    = 8
	maxGluelessNS   = 4
	defaultNegTTL   = 300
)

// Errors surfaced by resolution.
var (
	ErrNoServers = errors.New("resolver: no servers to query")
	ErrLame      = errors.New("resolver: lame delegation or dead servers")
	ErrLoop      = errors.New("resolver: referral or CNAME loop")
)

// Recursive is an iterative resolver rooted at the given root server IPs.
type Recursive struct {
	client *dnsio.Client
	// root is where a walk starts when no cached cut encloses the name.
	root cut
	// shared holds the zone cuts and the response contents; a Pool's
	// resolvers have one between them, a resolver built alone has its own.
	shared *shared

	cacheMu sync.Mutex
	cache   map[uint32]cached // by shared question id
	// cacheLimit bounds the cache size (1<<16). Tests set 0, which disables
	// caching, of answers and of zone cuts alike, for the uncached reference
	// walk.
	cacheLimit int
	// now is injectable for TTL tests.
	now func() time.Time
}

// cached is one resolver's answer to one question: which stored response,
// and until when this resolver may serve it.
type cached struct {
	answer  uint32 // index into shared.answers
	expires uint32 // on the resolver's clock, see seconds
}

// cut is a zone cut: the servers a referral named for a zone. Published cuts
// are never modified, only replaced.
type cut struct {
	zone    dns.Name
	servers []netip.Addr
	expires uint32
}

// shared is the state resolvers can hold in common without changing what any
// of them answers. Zone cuts: a downward referral is the same whoever asked.
// Questions and answers: the tables hold content only — a resolver's cache
// maps a question id to an answer id with its own expiry, so a geo-aware
// zone's per-region answers stay with the resolvers that received them while
// byte-identical responses are stored once, with the wire form they are
// stored under, which an open resolver replies with behind its own header
// word (OpenResolver.AppendWire). Upstream answers: a resolution that
// completed on one upstream answer, with no CNAME to chase, is a pure
// function of the question and that answer's bytes after the ID, so the memo
// maps those bytes to the question, answer ids and TTL it gave; a resolution
// of the same question that receives the same bytes — from any resolver of
// the pool, since a geo-aware zone's regions receive different bytes — books
// the stored answer, with no decode, no response built, packed or interned,
// and no mu. Entries are immutable once published and never evicted; the
// tables are bounded by the delegations and the distinct responses a world
// can produce, the memo by upstreamMemoCap.
//
// Every resolver of a pool answers every probe through these tables, so
// reading them writes nothing: cuts, questions and the memo are sync.Maps,
// and answers is a slice header republished on every append (the backing
// array is only copied when it grows, and a reader never indexes past the
// header it loaded). Only interning something new takes mu.
type shared struct {
	cuts      sync.Map // dns.Name → *cut
	questions sync.Map // dns.Question → uint32, the question's id
	answers   atomic.Pointer[[]storedAnswer]

	mu         sync.Mutex        // serialises interning
	nQuestions uint32            // ids handed out
	answerIDs  map[string]uint32 // wire form of a response to its index in answers

	// known is the upstream memo, by the hash of an answer's wire form after
	// the ID; nKnown counts its entries against upstreamMemoCap.
	known     sync.Map // uint64 → *knownAnswer
	nKnown    atomic.Int64
	knownSeed maphash.Seed
}

// storedAnswer is a response a resolution gave, as a message and as its wire
// form — the string answerIDs is keyed by — with ID 0, QR, RA and the RCODE
// set. A resolver that caches nothing stores nothing, and its resolutions
// come back with no wire form.
type storedAnswer struct {
	msg  *dns.Message
	wire string
}

// knownAnswer is an upstream memo entry: a terminal upstream answer, as its
// wire form after the ID, and the question resolved on it with the ids of
// that question and of the stored answer, and the answer's TTL.
type knownAnswer struct {
	key        string
	q          dns.Question
	id, answer uint32
	ttl        uint32
}

// The upstream memo's caps: at most upstreamMemoCap entries, each an answer
// of at most upstreamMemoMaxKey octets after the ID — a larger one repeats
// rarely. At `small` the pool's memo holds about 8,000 entries. Variables
// only so a test can reach the caps with a small world.
var (
	upstreamMemoCap    = 1 << 16
	upstreamMemoMaxKey = 512
)

func newShared() *shared {
	s := &shared{answerIDs: make(map[string]uint32), knownSeed: maphash.MakeSeed()}
	s.answers.Store(new([]storedAnswer))
	return s
}

// recall returns the memo's entry for the upstream answer resp to q, or nil.
// It reads without writing.
func (s *shared) recall(resp []byte, q dns.Question) *knownAnswer {
	key := resp[2:]
	v, ok := s.known.Load(maphash.Bytes(s.knownSeed, key))
	if !ok {
		return nil
	}
	if e := v.(*knownAnswer); e.q == q && e.key == string(key) {
		return e
	}
	return nil
}

// remember enters e for the upstream answer resp, unless the memo is full or
// an entry with the same hash is there first. The key is a copy: resp is lent.
func (s *shared) remember(resp []byte, e knownAnswer) {
	if len(resp) < 2 || len(resp)-2 > upstreamMemoMaxKey {
		return
	}
	for n := s.nKnown.Load(); ; n = s.nKnown.Load() {
		if n >= int64(upstreamMemoCap) {
			return
		}
		if s.nKnown.CompareAndSwap(n, n+1) {
			break // a place is reserved
		}
	}
	e.key = string(resp[2:])
	if _, loaded := s.known.LoadOrStore(maphash.String(s.knownSeed, e.key), &e); loaded {
		s.nKnown.Add(-1)
	}
}

// resolution is what one resolution queries through: its scratch, and, as the
// scratch's memo while it asks its own question, the pool's upstream memo.
type resolution struct {
	s      dnsio.Scratch
	shared *shared
	// wire is the last answer decoded, valid until the next exchange; hit is
	// the memo entry an answer was recognised as.
	wire []byte
	hit  *knownAnswer
}

var resolutionPool = sync.Pool{New: func() any { return new(resolution) }}

// Known implements dnsio.KnownAnswers: an upstream answer the pool has
// resolved q on before.
func (u *resolution) Known(resp []byte, q dns.Question) bool {
	u.hit = u.shared.recall(resp, q)
	return u.hit != nil
}

// NewRecursive builds a resolver that queries through client starting at the
// given roots.
func NewRecursive(client *dnsio.Client, roots []netip.Addr) *Recursive {
	return newRecursive(client, roots, newShared())
}

func newRecursive(client *dnsio.Client, roots []netip.Addr, s *shared) *Recursive {
	return &Recursive{
		client:     client,
		root:       cut{zone: dns.Root, servers: roots},
		shared:     s,
		cache:      make(map[uint32]cached),
		cacheLimit: 1 << 16,
		now:        time.Now,
	}
}

// seconds reads the resolver's clock the way the caches keep time: whole
// seconds since the Unix epoch, in 32 bits. An entry is fresh while the
// reading is below its expires. Resolve reads the clock once; everything a
// resolution looks up or caches is judged at that moment.
func (r *Recursive) seconds() uint32 {
	return uint32(r.now().Unix())
}

// expiry is the moment an entry cached at now with this TTL stops being fresh.
func expiry(now, ttl uint32) uint32 {
	return uint32(min(uint64(now)+uint64(ttl), math.MaxUint32))
}

// LookupA resolves a name to its IPv4 addresses.
func (r *Recursive) LookupA(ctx context.Context, name dns.Name) ([]netip.Addr, error) {
	msg, err := r.Resolve(ctx, name, dns.TypeA)
	if err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, rr := range msg.AnswersOfType(dns.TypeA) {
		out = append(out, rr.Data.(*dns.A).Addr)
	}
	return out, nil
}

// LookupTXT resolves a name's TXT strings (each record joined).
func (r *Recursive) LookupTXT(ctx context.Context, name dns.Name) ([]string, error) {
	msg, err := r.Resolve(ctx, name, dns.TypeTXT)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range msg.AnswersOfType(dns.TypeTXT) {
		out = append(out, rr.Data.(*dns.TXT).Joined())
	}
	return out, nil
}

// Resolve performs full iterative resolution of (name, qtype) and returns a
// response message with the complete CNAME chain in the answer section.
func (r *Recursive) Resolve(ctx context.Context, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	a, err := r.resolve(ctx, name, qtype, 0, r.seconds())
	return a.msg, err
}

func (r *Recursive) resolve(ctx context.Context, name dns.Name, qtype dns.Type, depth int, now uint32) (storedAnswer, error) {
	if depth > maxGluelessNS {
		return storedAnswer{}, fmt.Errorf("%w: NS resolution too deep", ErrLoop)
	}
	q := dns.Question{Name: name, Type: qtype, Class: dns.ClassINET}
	if a, ok := r.cacheGet(q, now); ok {
		return a, nil
	}

	u := resolutionPool.Get().(*resolution)
	defer resolutionPool.Put(u)
	// The memo is asked while the walk asks the resolution's own question,
	// and only by a resolver that caches.
	u.shared, u.hit, u.s.Known = r.shared, nil, nil
	if r.cacheLimit > 0 {
		u.s.Known = u
	}
	var final *dns.Message
	target := name
	for cnameHop := 0; cnameHop <= maxCNAMEHops; cnameHop++ {
		resp, err := r.iterate(ctx, u, target, qtype, depth, now)
		if err != nil {
			return storedAnswer{}, err
		}
		if u.hit != nil {
			return r.book(*u.hit, now), nil
		}
		if final == nil {
			final = &dns.Message{
				Header:    dns.Header{Response: true, RecursionAvailable: true},
				Questions: []dns.Question{q},
			}
		}
		final.Header.RCode = resp.Header.RCode
		final.Answers = append(final.Answers, resp.Answers...)
		final.Authority = resp.Authority

		// Done unless the terminal answer is an unchased CNAME.
		last := lastCNAMETarget(resp.Answers, qtype)
		if last == dns.Root {
			a, e, ok := r.cachePut(q, final, now)
			if !ok {
				return storedAnswer{msg: final}, nil
			}
			if cnameHop == 0 {
				// final is what this one upstream answer gives q.
				r.shared.remember(u.wire, e)
			}
			return a, nil
		}
		// A chase's answers are not the resolution's own.
		u.s.Known = nil
		target = last
	}
	return storedAnswer{}, fmt.Errorf("%w: CNAME chain too long for %s", ErrLoop, name.String())
}

// lastCNAMETarget returns the target of the trailing CNAME if the answer
// section ends in an unresolved alias, or the root name when the chain is
// complete.
func lastCNAMETarget(answers []dns.RR, qtype dns.Type) dns.Name {
	if qtype == dns.TypeCNAME || len(answers) == 0 {
		return dns.Root
	}
	last := answers[len(answers)-1]
	if last.Type() != dns.TypeCNAME {
		return dns.Root
	}
	return last.Data.(*dns.CNAME).Target
}

// iterate walks the delegation tree for one owner name (no CNAME chasing
// across calls; in-server chains are accepted as returned), starting at the
// closest enclosing zone cut the cache knows and caching the cuts it crosses.
//
// It queries through u. An answer u's memo recognises ends the walk with a
// nil message and the entry in u.hit.
func (r *Recursive) iterate(ctx context.Context, u *resolution, name dns.Name, qtype dns.Type, depth int, now uint32) (*dns.Message, error) {
	if len(r.root.servers) == 0 {
		return nil, ErrNoServers
	}
	// at is the cut whose servers are asked next; fromCache says they were
	// read from the cache rather than from a referral of this walk.
	at, fromCache := r.closestCut(name, now)
	// trusted holds while every referral of this walk stayed in bailiwick.
	// Once a server has pointed outside the zone it was asked for, the walk
	// follows it as it always did, but nothing it leads to is cached: the
	// table is shared, and one hostile or garbled authority must not
	// re-point a zone for every resolver of the pool.
	trusted := true
	for hop := 0; hop < maxReferralHops; hop++ {
		resp, err := r.queryAny(ctx, u, at.servers, name, qtype)
		if u.hit != nil {
			return nil, nil
		}
		if err != nil {
			r.forgetCut(at)
			if !fromCache {
				return nil, err
			}
			// A cached set of servers may simply be stale. Ask the roots
			// where the zone lives now, once; a resolver behind a dead set
			// ends in the same ErrLame the uncached walk gives.
			at, fromCache = &r.root, false
			continue
		}
		switch {
		case resp.Header.RCode == dns.RCodeNXDomain,
			resp.Header.RCode == dns.RCodeSuccess && len(resp.Answers) > 0,
			resp.Header.RCode == dns.RCodeSuccess && len(resp.Answers) == 0 && !isReferral(resp):
			return resp, nil
		case isReferral(resp):
			servers, err := r.serversFromReferral(ctx, resp, depth, now)
			if err != nil {
				return nil, err
			}
			zone, ttl, ok := referralCut(resp)
			next := &cut{zone: zone, servers: servers, expires: expiry(now, ttl)}
			trusted = trusted && ok && zone.IsProperSubdomainOf(at.zone) && name.IsSubdomainOf(zone)
			if trusted {
				r.learnCut(next)
			}
			at, fromCache = next, false
		default:
			// REFUSED / SERVFAIL from the zone: surface as-is.
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%w: too many referrals for %s", ErrLoop, name.String())
}

// referralCut reads the delegation a referral announces: the zone its NS
// records own and the smallest TTL among them and the glue. ok is false when
// the NS records do not agree on one owner.
func referralCut(resp *dns.Message) (zone dns.Name, ttl uint32, ok bool) {
	ttl = math.MaxUint32
	for _, rr := range resp.Authority {
		if rr.Type() != dns.TypeNS {
			continue
		}
		if ok && rr.Name != zone {
			return zone, 0, false
		}
		zone, ok = rr.Name, true
		ttl = min(ttl, rr.TTL)
	}
	for _, rr := range resp.Additional {
		if rr.Type() == dns.TypeA {
			ttl = min(ttl, rr.TTL)
		}
	}
	return zone, ttl, ok
}

// closestCut returns the deepest fresh cached cut at or above name, or the
// roots when there is none.
func (r *Recursive) closestCut(name dns.Name, now uint32) (at *cut, fromCache bool) {
	if r.cacheLimit == 0 {
		return &r.root, false
	}
	for zone := name; zone != dns.Root; zone = zone.Parent() {
		if v, ok := r.shared.cuts.Load(zone); ok {
			if c := v.(*cut); now < c.expires {
				return c, true
			}
		}
	}
	return &r.root, false
}

// learnCut publishes a cut for every resolver sharing the table. Concurrent
// walks may both learn the same cut; they computed it from the same referral,
// so whichever lands last replaces an equal entry.
func (r *Recursive) learnCut(c *cut) {
	if r.cacheLimit == 0 {
		return
	}
	r.shared.cuts.Store(c.zone, c)
}

// forgetCut drops a cut whose servers all failed, unless another walk has
// replaced it since. The roots are never in the table.
func (r *Recursive) forgetCut(c *cut) {
	r.shared.cuts.CompareAndDelete(c.zone, c)
}

// isReferral reports whether resp is a downward referral.
func isReferral(resp *dns.Message) bool {
	if resp.Header.Authoritative || len(resp.Answers) > 0 {
		return false
	}
	for _, rr := range resp.Authority {
		if rr.Type() == dns.TypeNS {
			return true
		}
	}
	return false
}

// serversFromReferral extracts nameserver addresses from a referral, using
// glue when present and resolving glueless NS hosts otherwise.
func (r *Recursive) serversFromReferral(ctx context.Context, resp *dns.Message, depth int, now uint32) ([]netip.Addr, error) {
	var addrs []netip.Addr
	glue := make(map[dns.Name][]netip.Addr)
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(*dns.A); ok {
			glue[rr.Name] = append(glue[rr.Name], a.Addr)
		}
	}
	var glueless []dns.Name
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(*dns.NS)
		if !ok {
			continue
		}
		if g, ok := glue[ns.Host]; ok {
			addrs = append(addrs, g...)
		} else {
			glueless = append(glueless, ns.Host)
		}
	}
	// Resolve glueless NS hosts only if glue gave us nothing.
	if len(addrs) == 0 {
		for _, host := range glueless {
			sub, err := r.resolve(ctx, host, dns.TypeA, depth+1, now)
			if err != nil {
				continue
			}
			for _, rr := range sub.msg.AnswersOfType(dns.TypeA) {
				addrs = append(addrs, rr.Data.(*dns.A).Addr)
			}
			if len(addrs) > 0 {
				break
			}
		}
	}
	if len(addrs) == 0 {
		return nil, ErrLame
	}
	return addrs, nil
}

// queryAny tries each server until one answers, through u. The answer is
// taken from u's scratch, a message of the resolver's own because a cached
// response keeps its sections, and its wire form is u.wire; an answer u's
// memo recognised comes back as a nil message, with u.hit set.
func (r *Recursive) queryAny(ctx context.Context, u *resolution, servers []netip.Addr, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	var lastErr error = ErrLame
	for _, s := range servers {
		resp, wire, err := r.client.QueryInto(ctx, &u.s, netip.AddrPortFrom(s, dnsio.DNSPort), name, qtype)
		if err != nil {
			lastErr = err
			continue
		}
		if resp != nil {
			resp = u.s.Take()
		}
		u.wire = wire
		return resp, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrLame, lastErr)
}

func (r *Recursive) cacheGet(q dns.Question, now uint32) (storedAnswer, bool) {
	if r.cacheLimit == 0 {
		return storedAnswer{}, false
	}
	v, ok := r.shared.questions.Load(q)
	if !ok {
		return storedAnswer{}, false
	}
	id := v.(uint32)
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	e, ok := r.cache[id]
	if !ok {
		return storedAnswer{}, false
	}
	if now >= e.expires {
		delete(r.cache, id)
		return storedAnswer{}, false
	}
	return (*r.shared.answers.Load())[e.answer], true
}

// packBufPool holds the scratch buffers cachePut encodes responses into.
var packBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// cachePut stores msg as q's answer and caches it; ok is false when it
// cached nothing, and otherwise a is the stored answer, equal to msg, and e
// says what it booked.
func (r *Recursive) cachePut(q dns.Question, msg *dns.Message, now uint32) (a storedAnswer, e knownAnswer, ok bool) {
	if r.cacheLimit == 0 {
		return a, e, false
	}
	// A response is stored under its wire form, so equal content is one
	// entry whichever resolver received it. One that cannot be encoded could
	// not have been relayed either; it is not cached.
	bp := packBufPool.Get().(*[]byte)
	defer packBufPool.Put(bp)
	wire, err := msg.AppendPack((*bp)[:0])
	if err != nil {
		return a, e, false
	}
	*bp = wire
	e.q, e.ttl = q, messageTTL(msg)
	e.id, e.answer = r.shared.intern(q, wire, msg)
	return r.book(e, now), e, true
}

// book caches e's stored answer as its question's for e's TTL from now, and
// returns it.
func (r *Recursive) book(e knownAnswer, now uint32) storedAnswer {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if len(r.cache) >= r.cacheLimit {
		// Drop an arbitrary entry; good enough for a measurement cache.
		for k := range r.cache {
			delete(r.cache, k)
			break
		}
	}
	r.cache[e.id] = cached{answer: e.answer, expires: expiry(now, e.ttl)}
	return (*r.shared.answers.Load())[e.answer]
}

// intern returns the ids of a question and of a response's content, storing
// msg as that content's one instance if no equal response is stored yet.
func (s *shared) intern(q dns.Question, wire []byte, msg *dns.Message) (id, answer uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.questions.Load(q); ok {
		id = v.(uint32)
	} else {
		id = s.nQuestions
		s.nQuestions++
		s.questions.Store(q, id)
	}
	answer, ok := s.answerIDs[string(wire)]
	if !ok {
		answers := *s.answers.Load()
		answer = uint32(len(answers))
		key := string(wire)
		s.answerIDs[key] = answer
		answers = append(answers, storedAnswer{msg: msg, wire: key})
		s.answers.Store(&answers)
	}
	return id, answer
}

// messageTTL picks the cache lifetime: the minimum answer TTL, or the SOA
// minimum for negative responses.
func messageTTL(msg *dns.Message) uint32 {
	if len(msg.Answers) == 0 {
		for _, rr := range msg.Authority {
			if soa, ok := rr.Data.(*dns.SOA); ok {
				if soa.Minimum < rr.TTL {
					return soa.Minimum
				}
				return rr.TTL
			}
		}
		return defaultNegTTL
	}
	ttl := msg.Answers[0].TTL
	for _, rr := range msg.Answers[1:] {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	return ttl
}

// CacheSize returns the number of cached questions.
func (r *Recursive) CacheSize() int {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return len(r.cache)
}
