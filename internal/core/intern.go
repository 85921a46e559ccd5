// String interning for the hot identity strings of a sweep: rdata and domain
// names. At the paper's scale the same rdata is observed once per nameserver
// that serves it (§5.1 counts the same data on two servers as two URs), so a
// sweep materializes each distinct string hundreds of times. Interning
// collapses those duplicates to one canonical instance, which (a) retires the
// copies at the next GC instead of keeping them live in every UR, and (b)
// makes the determiner's memo-map lookups cheap: Go string comparison
// short-circuits on equal data pointers, so interned keys hit the fast path.
package core

import "sync"

const (
	// internShardCount shards the table so concurrent sweep workers and
	// determine workers never contend on one lock. Power of two.
	internShardCount = 16
	// internMaxLen bounds the length of strings worth interning: rdata
	// beyond this is almost certainly unique (long TXT blobs), so caching it
	// would grow the table without ever deduplicating anything.
	internMaxLen = 256
	// internShardCap bounds each shard's table. The collector only interns
	// validated rdata, but a hostile zone could still serve millions of
	// distinct short strings; past the cap, Intern degrades to identity.
	internShardCap = 1 << 16
)

type internShard struct {
	mu sync.Mutex
	m  map[string]string
}

// Interner is a sharded, capped string-interning table. A sweep's collector
// holds one; packages that build long-lived flat stores (urwatch's generation
// string tables) hold another, shared across builds: consecutive generations
// observe mostly the same domains and rdata, so interning through one shared
// table makes their tables reference the same backing bytes instead of
// re-materializing them every sweep.
type Interner struct {
	shards [internShardCount]internShard
}

// NewInterner builds an empty interning table.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[string]string)
	}
	return in
}

// Intern returns the canonical instance of s, registering it if the table has
// room (s itself once the table caps out). Safe for concurrent use. The lookup
// itself never allocates: map access with a string key uses the key in place.
func (in *Interner) Intern(s string) string {
	if len(s) == 0 || len(s) > internMaxLen {
		return s
	}
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	sh := &in.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	if v, ok := sh.m[s]; ok {
		sh.mu.Unlock()
		return v
	}
	if len(sh.m) < internShardCap {
		sh.m[s] = s
	}
	sh.mu.Unlock()
	return s
}
