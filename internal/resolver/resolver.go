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
// stored for them, without decoding them. A resolver's answer cache is an
// array indexed by the pool's id for a question, numbered by a hash of the
// question (questionKey), which an open resolver takes from the query's wire
// bytes, and replies to a plain query with the bytes its answer is stored
// under, behind the query's own header word.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/readmap"
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
	cache   []cached // by the pool's question id, see shared.questionID
	// uncached disables caching, of answers and of zone cuts alike, for the
	// uncached reference walk tests hold the cached one to.
	uncached bool
	// now is injectable for TTL tests.
	now func() time.Time
}

// cached is one resolver's answer to one question: which stored response,
// and until when this resolver may serve it; the zero cached is empty.
// Questions whose keys collide share an id, and so an entry; the stored
// response's question says which one it answers.
type cached struct {
	answer  uint32 // 1 + index into shared.answers
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
// Answers: the store holds content only — a resolver's cache maps a question
// id to an answer id with its own expiry, so a geo-aware zone's per-region
// answers stay with the resolvers that received them while byte-identical
// responses are stored once, with the wire form they are stored under, which
// an open resolver replies with behind its own header word
// (OpenResolver.AppendWire). Upstream answers: a resolution that completed on
// one upstream answer, with no CNAME to chase, is a pure function of the
// question and that answer's bytes after the ID, so the memo maps those bytes
// to the question, answer id and TTL it gave; a resolution of the same
// question that receives the same bytes — from any resolver of the pool,
// since a geo-aware zone's regions receive different bytes — books the stored
// answer, with no decode, no response built, packed or interned, and no mu.
// Question ids: every resolver of a pool is asked nearly every question the
// pool is, so the pool numbers the questions once and each resolver's cache
// is an array by that number. Entries are immutable once published and never
// evicted; the tables are bounded by the delegations and the distinct
// responses a world can produce, the memo by upstreamMemoCap, the ids by
// maxQuestions.
//
// Every resolver of a pool answers every probe through these tables, so
// reading them writes nothing: cuts, the ids and the memo are readmap.Maps,
// and answers is a slice header republished on every append (the backing
// array is only copied when it grows, and a reader never indexes past the
// header it loaded). Only interning or numbering something new takes mu.
type shared struct {
	// cuts holds a slot per zone a walk has learned a cut for; the slot holds
	// the zone's current cut, nil once it is forgotten.
	cuts    readmap.Map[dns.Name, *atomic.Pointer[cut]]
	answers atomic.Pointer[[]storedAnswer]

	mu        sync.Mutex        // serialises interning and numbering
	answerIDs map[string]uint32 // wire form of a response to its index in answers

	// ids numbers questions by questionKey, densely from 0; nIDs is how many
	// it holds.
	ids  readmap.Map[uint64, uint32]
	nIDs atomic.Uint32

	// known is the upstream memo, by the hash of an answer's wire form after
	// the ID; nKnown counts its entries against upstreamMemoCap.
	known     readmap.Map[uint64, *knownAnswer]
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
// wire form after the ID, and the question resolved on it with the id of the
// stored answer and the answer's TTL.
type knownAnswer struct {
	key         string
	q           dns.Question
	answer, ttl uint32
}

// The upstream memo's caps: at most upstreamMemoCap entries, each an answer
// of at most upstreamMemoMaxKey octets after the ID — a larger one repeats
// rarely. At `small` the pool's memo holds about 8,000 entries. Variables
// only so a test can reach the caps with a small world.
var (
	upstreamMemoCap    = 1 << 16
	upstreamMemoMaxKey = 512
)

// maxQuestions caps the pool's question ids, and so each resolver's cache: a
// question past it is resolved and answered but not cached. At `paper` the
// pool asks about 4,500 distinct questions. A variable only so a test can
// reach the cap with a small world.
var maxQuestions = 1 << 16

// noID is the id of a question that is not cached: one past maxQuestions, or
// asked of a resolver that caches nothing.
const noID = math.MaxUint32

func newShared() *shared {
	s := &shared{answerIDs: make(map[string]uint32), knownSeed: maphash.MakeSeed()}
	s.answers.Store(new([]storedAnswer))
	return s
}

// questionID returns the id of the question whose key is key, numbering it
// if the pool has not seen it, or noID when maxQuestions are numbered.
func (s *shared) questionID(key uint64) uint32 {
	if id, ok := s.ids.Load(key); ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nIDs.Load()
	if int(n) >= maxQuestions {
		return noID
	}
	id, loaded := s.ids.LoadOrStore(key, n)
	if !loaded {
		s.nIDs.Store(n + 1)
	}
	return id
}

// recall returns the memo's entry for the upstream answer resp to q, or nil.
// It reads without writing.
func (s *shared) recall(resp []byte, q dns.Question) *knownAnswer {
	key := resp[2:]
	if e, ok := s.known.Load(maphash.Bytes(s.knownSeed, key)); ok && e.q == q && e.key == string(key) {
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
		client: client,
		root:   cut{zone: dns.Root, servers: roots},
		shared: s,
		now:    time.Now,
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
	id := r.questionID(questionKey(name, qtype))
	if a, ok := r.cacheGet(id, now); ok && a.msg.Questions[0] == q {
		return a, nil
	}
	return r.walk(ctx, q, id, depth, now)
}

// walk resolves q, whose id is id, from the closest cut the resolver knows,
// chasing CNAMEs, and caches the answer.
func (r *Recursive) walk(ctx context.Context, q dns.Question, id uint32, depth int, now uint32) (storedAnswer, error) {
	u := resolutionPool.Get().(*resolution)
	defer resolutionPool.Put(u)
	// The memo is asked while the walk asks the resolution's own question,
	// and only by a resolver that caches.
	u.shared, u.hit, u.s.Known = r.shared, nil, nil
	if !r.uncached {
		u.s.Known = u
	}
	var final *dns.Message
	target := q.Name
	for cnameHop := 0; cnameHop <= maxCNAMEHops; cnameHop++ {
		resp, err := r.iterate(ctx, u, target, q.Type, depth, now)
		if err != nil {
			return storedAnswer{}, err
		}
		if u.hit != nil {
			return r.book(id, *u.hit, now), nil
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
		last := lastCNAMETarget(resp.Answers, q.Type)
		if last == dns.Root {
			a, e, ok := r.cachePut(q, id, final, now)
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
	return storedAnswer{}, fmt.Errorf("%w: CNAME chain too long for %s", ErrLoop, q.Name.String())
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
	if r.uncached {
		return &r.root, false
	}
	for i := 0; i < len(name); {
		if slot, ok := r.shared.cuts.Load(name[i:]); ok {
			if c := slot.Load(); c != nil && now < c.expires {
				return c, true
			}
		}
		dot := strings.IndexByte(string(name[i:]), '.')
		if dot < 0 {
			break
		}
		i += dot + 1
	}
	return &r.root, false
}

// learnCut publishes a cut for every resolver sharing the table. Concurrent
// walks may both learn the same cut; they computed it from the same referral,
// so whichever lands last replaces an equal entry.
func (r *Recursive) learnCut(c *cut) {
	if r.uncached {
		return
	}
	slot, ok := r.shared.cuts.Load(c.zone)
	if !ok {
		slot, _ = r.shared.cuts.LoadOrStore(c.zone, new(atomic.Pointer[cut]))
	}
	slot.Store(c)
}

// forgetCut drops a cut whose servers all failed, unless another walk has
// replaced it since. The roots are never in the table.
func (r *Recursive) forgetCut(c *cut) {
	if slot, ok := r.shared.cuts.Load(c.zone); ok {
		slot.CompareAndSwap(c, nil)
	}
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

// questionKey is what the pool numbers questions by: FNV-1a over a
// question's name, in the lower-cased presentation form dns.Name and
// dns.ParseQuery share, and its type. Questions of class IN are the only ones
// a resolver resolves. Two questions may share a key, and so an id, so an
// entry answers only the question its stored answer carries.
func questionKey[N ~string | ~[]byte](name N, t dns.Type) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	h = (h ^ uint64(t>>8)) * prime
	return (h ^ uint64(t&0xFF)) * prime
}

// questionID is the pool's id for the question whose key is key, or noID when
// r caches nothing.
func (r *Recursive) questionID(key uint64) uint32 {
	if r.uncached {
		return noID
	}
	return r.shared.questionID(key)
}

// cacheGet returns the stored answer r caches under id, if it is fresh at
// now. The caller checks that the answer's question is the one it asks.
func (r *Recursive) cacheGet(id uint32, now uint32) (storedAnswer, bool) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if uint(id) >= uint(len(r.cache)) { // noID included
		return storedAnswer{}, false
	}
	e := r.cache[id]
	if e.answer == 0 || now >= e.expires {
		return storedAnswer{}, false
	}
	return (*r.shared.answers.Load())[e.answer-1], true
}

// packBufPool holds the scratch buffers cachePut encodes responses into.
var packBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// cachePut stores msg as q's answer and caches it under id; ok is false when
// it stored nothing, and otherwise a is the stored answer, equal to msg, and
// e says what it booked.
func (r *Recursive) cachePut(q dns.Question, id uint32, msg *dns.Message, now uint32) (a storedAnswer, e knownAnswer, ok bool) {
	if r.uncached {
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
	e.answer = r.shared.intern(wire, msg)
	return r.book(id, e, now), e, true
}

// book caches e's stored answer under id, its question's, for e's TTL from
// now, and returns it. A question with no id is not cached.
func (r *Recursive) book(id uint32, e knownAnswer, now uint32) storedAnswer {
	if id != noID {
		r.cacheMu.Lock()
		if int(id) >= len(r.cache) {
			// At least every id the pool has given out: a resolver asked
			// after its pool has seen the questions grows once, to size.
			grown := make([]cached, max(2*len(r.cache), int(r.shared.nIDs.Load()), int(id)+1))
			copy(grown, r.cache)
			r.cache = grown
		}
		r.cache[id] = cached{answer: e.answer + 1, expires: expiry(now, e.ttl)}
		r.cacheMu.Unlock()
	}
	return (*r.shared.answers.Load())[e.answer]
}

// intern returns the id of a response's content, storing msg as that
// content's one instance if no equal response is stored yet.
func (s *shared) intern(wire []byte, msg *dns.Message) (answer uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	answer, ok := s.answerIDs[string(wire)]
	if !ok {
		answers := *s.answers.Load()
		answer = uint32(len(answers))
		key := string(wire)
		s.answerIDs[key] = answer
		answers = append(answers, storedAnswer{msg: msg, wire: key})
		s.answers.Store(&answers)
	}
	return answer
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
	n := 0
	for _, e := range r.cache {
		if e.answer != 0 {
			n++
		}
	}
	return n
}
