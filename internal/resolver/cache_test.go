package resolver

import (
	"math/rand"
	"testing"
)

// TestAnswerCacheMatchesMap drives an answerCache and a map through the same
// random puts, gets, deletes and evictions — keys drawn from a small set so
// runs collide and deletions move entries back, and some keys differing only
// above bit 40, which must share an entry — and holds every lookup and the
// size to the map's after each step.
func TestAnswerCacheMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c answerCache
	model := map[uint64]cached{}
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = rng.Uint64()
		if i%10 == 9 {
			keys[i] = keys[i-1] ^ 1<<(40+rng.Intn(24)) // equal in the low 40 bits
		}
	}
	for step := 0; step < 200000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(10); {
		case op < 5:
			e := cached{answer: uint32(rng.Intn(maxCachedAnswer + 1)), expires: rng.Uint32()}
			c.put(k, e)
			model[k&cacheKeyMask] = e
		case op < 8:
			c.delete(k)
			delete(model, k&cacheKeyMask)
		case op < 9 && len(model) > 0:
			// The entry evicted is the cache's choice; the model follows it.
			var first uint64
			for _, s := range c.slots {
				if s.used() {
					first = s.key()
					break
				}
			}
			c.evict()
			delete(model, first)
		default:
			got, ok := c.get(k)
			want, wantOK := model[k&cacheKeyMask]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: get(%x) = %v, %v; want %v, %v", step, k, got, ok, want, wantOK)
			}
		}
		if c.n != len(model) {
			t.Fatalf("step %d: %d entries, want %d", step, c.n, len(model))
		}
		if step%1000 == 0 {
			for mk, want := range model {
				if got, ok := c.get(mk); !ok || got != want {
					t.Fatalf("step %d: entry %x lost: %v, %v; want %v", step, mk, got, ok, want)
				}
			}
		}
	}
	if len(c.slots)*7 < c.n*8 {
		t.Errorf("%d entries in %d slots: more than 7/8 used", c.n, len(c.slots))
	}
	// An answer id a slot cannot hold is not cached.
	c.put(1, cached{answer: maxCachedAnswer + 1, expires: 1})
	if e, ok := c.get(1); ok && e.answer == maxCachedAnswer+1 {
		t.Error("an answer id above maxCachedAnswer was cached")
	}
}
