package resolver

import "math/bits"

// answerCache is one resolver's answer cache: entries by question key
// (questionKey) in an open-addressed table with linear probing, its capacity a
// power of two and at most 7/8 of it used. A slot is 12 bytes: the key's low
// 40 bits, the answer id and the expiry. A Go map's slot of a 64-bit key and a
// cached value is 17 bytes at the same load, of a 32-bit key 13, and a pool
// holds a cache per resolver: at paper scale they are a fifth of the live
// heap.
//
// Keys equal in their low 40 bits share an entry. Like keys equal in full,
// the stored answer's question tells them apart: a lookup's caller checks it.
type answerCache struct {
	slots []cacheSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// cacheSlot is one entry. lo is the key's low 32 bits; hi holds the key's
// bits 32 to 39 in its low byte and the answer id plus one above them, so an
// empty slot is the zero slot.
type cacheSlot struct {
	lo, hi  uint32
	expires uint32
}

// maxCachedAnswer is the largest answer id a slot holds. A pool that stores
// more distinct responses still answers; it does not cache the later ones.
const maxCachedAnswer = 1<<24 - 2

const cacheKeyMask = 1<<40 - 1

func (s cacheSlot) used() bool    { return s.hi>>8 != 0 }
func (s cacheSlot) key() uint64   { return uint64(s.hi&0xFF)<<32 | uint64(s.lo) }
func (s cacheSlot) entry() cached { return cached{answer: s.hi>>8 - 1, expires: s.expires} }
func (c *answerCache) mask() int  { return len(c.slots) - 1 }

func (c *answerCache) home(key uint64) int {
	// Fibonacci hashing spreads all 40 bits over the index.
	return int(key * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the index of key's slot, or of the empty slot that ends the
// run key would be in. key is already masked to 40 bits.
func (c *answerCache) find(key uint64) int {
	for i := c.home(key); ; i = (i + 1) & c.mask() {
		if s := c.slots[i]; !s.used() || s.key() == key {
			return i
		}
	}
}

// get returns the entry under key.
func (c *answerCache) get(key uint64) (cached, bool) {
	if c.n == 0 {
		return cached{}, false
	}
	if s := c.slots[c.find(key&cacheKeyMask)]; s.used() {
		return s.entry(), true
	}
	return cached{}, false
}

// put stores e under key, replacing what is there.
func (c *answerCache) put(key uint64, e cached) {
	if e.answer > maxCachedAnswer {
		c.delete(key)
		return
	}
	if (c.n+1)*8 > len(c.slots)*7 {
		c.grow()
	}
	key &= cacheKeyMask
	i := c.find(key)
	if !c.slots[i].used() {
		c.n++
	}
	c.slots[i] = cacheSlot{lo: uint32(key), hi: uint32(key>>32) | (e.answer+1)<<8, expires: e.expires}
}

func (c *answerCache) grow() {
	old := c.slots
	size := max(2*len(old), 16)
	c.slots = make([]cacheSlot, size)
	c.shift = uint(65 - bits.Len(uint(size)))
	for _, s := range old {
		if s.used() {
			c.slots[c.find(s.key())] = s
		}
	}
}

// delete removes the entry under key, if there is one.
func (c *answerCache) delete(key uint64) {
	if c.n == 0 {
		return
	}
	if i := c.find(key & cacheKeyMask); c.slots[i].used() {
		c.deleteAt(i)
	}
}

// evict removes one entry, the first in slot order.
func (c *answerCache) evict() {
	for i, s := range c.slots {
		if s.used() {
			c.deleteAt(i)
			return
		}
	}
}

// deleteAt empties slot i, moving back the entries of its run that a lookup
// would otherwise no longer reach.
func (c *answerCache) deleteAt(i int) {
	for j := (i + 1) & c.mask(); c.slots[j].used(); j = (j + 1) & c.mask() {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically after i, up to j.
		if h := c.home(c.slots[j].key()); (j-h)&c.mask() >= (j-i)&c.mask() {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = cacheSlot{}
	c.n--
}
