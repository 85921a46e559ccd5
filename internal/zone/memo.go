package zone

import (
	"hash/maphash"

	"repro/internal/dns"
)

// The memo's bounds: at most MemoCap replies per zone, each of at most
// dns.MaxEDNS0Size octets. A sweep asks a zone's servers about a handful of
// names, but a server on a real socket can be asked about any name under a
// wildcard; past the cap its replies are packed every time.
const MemoCap = 256

// memoSeed keys every zone's memo.
var memoSeed = maphash.MakeSeed()

// replyMemo is the replies memoized at one generation of a zone. A published
// memo is never changed: a fill publishes a copy with one more reply, and a
// mutation retires the whole memo. A zone holds a few replies (at `small`, a
// median of 2 and at most 62), so they are scanned, and each is one string
// of no pointers for the collector to follow.
type replyMemo struct {
	gen     uint64
	replies []memoReply
	octets  int // of keys and replies
}

// memoReply is a memoized reply: the hash of its key, and the key followed by
// the reply.
type memoReply struct {
	hash   uint64
	keyLen int
	data   string
}

// Generation returns the number of mutations the zone has seen. A reply built
// from lookups made after reading it may be memoized under it (Memoize).
func (z *Zone) Generation() uint64 { return z.gen.Load() }

// Memoized returns the reply memoized under key at the zone's current
// generation. It reads without writing.
func (z *Zone) Memoized(key []byte) (reply string, ok bool) {
	m := z.memo.Load()
	if m == nil || m.gen != z.gen.Load() {
		return "", false
	}
	h := maphash.Bytes(memoSeed, key)
	for i := range m.replies {
		if r := &m.replies[i]; r.hash == h && r.data[:r.keyLen] == string(key) {
			return r.data[r.keyLen:], true
		}
	}
	return "", false
}

// Memoize keeps a copy of reply under key, provided gen — the generation read
// before the lookups reply was built from — is still the zone's, the memo has
// room and the reply is no longer than dns.MaxEDNS0Size.
func (z *Zone) Memoize(gen uint64, key, reply []byte) {
	if len(reply) > dns.MaxEDNS0Size {
		return
	}
	r := memoReply{hash: maphash.Bytes(memoSeed, key), keyLen: len(key)}
	for {
		m := z.memo.Load()
		var held []memoReply
		octets := 0
		if m != nil && m.gen == gen {
			held, octets = m.replies, m.octets
		} else if gen != z.gen.Load() {
			return
		}
		if len(held) >= MemoCap {
			return
		}
		for i := range held {
			if held[i].hash == r.hash && held[i].data[:held[i].keyLen] == string(key) {
				return // a concurrent fill was first
			}
		}
		if r.data == "" {
			r.data = string(key) + string(reply)
		}
		next := &replyMemo{gen: gen, replies: make([]memoReply, len(held)+1), octets: octets + len(r.data)}
		copy(next.replies, held)
		next.replies[len(held)] = r
		if z.memo.CompareAndSwap(m, next) {
			return
		}
	}
}

// MemoSize returns how many replies the zone has memoized at its current
// generation, and their octets with their keys.
func (z *Zone) MemoSize() (replies, octets int) {
	m := z.memo.Load()
	if m == nil || m.gen != z.gen.Load() {
		return 0, 0
	}
	return len(m.replies), m.octets
}
