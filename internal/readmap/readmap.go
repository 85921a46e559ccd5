// Package readmap provides a typed concurrent map for tables that are read
// far more often than they grow: the simulated fabric's hosts, the open
// resolvers' zone cuts, question ids and upstream memo, the breakers of
// servers that failed and the encrypted sim transports' handshake set. A
// lookup of a published entry takes no lock and writes nothing, and neither
// does a lookup that misses while no entry is waiting to be published; keys
// are hashed by their own type, never as interfaces.
//
// It does not suit a table that several workers fill during one operation
// and read back at once: until the next publish, every such read takes the
// one lock. The collector avoids such tables instead — its web-probe cache
// is one map under one lock, each sweep worker interns into a table of its
// own, and the correct-record database's index is built before its sweep.
//
// Entries are only ever added. A value that must change is a pointer to
// something the caller updates in place.
package readmap

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Map is a map from K to V that entries are added to but never removed from.
// The zero Map is empty and ready to use; a Map must not be copied after
// first use.
//
// New entries wait in a locked map until they are published: read is
// replaced by a copy holding them once the operations that took the lock
// since the last publish reach the number of entries read holds, so each
// copy of n entries follows at least n locked operations.
type Map[K comparable, V any] struct {
	// read holds every published entry and is never modified once stored.
	read atomic.Pointer[map[K]V]
	// pending is len(dirty), for lookups that do not take mu.
	pending atomic.Int64

	mu    sync.Mutex
	dirty map[K]V // entries added since read was published
	slow  int     // operations that took mu since read was published
}

// Load returns the value stored for k.
func (m *Map[K, V]) Load(k K) (v V, ok bool) {
	// pending is read before read: an entry added before this call is either
	// still pending, or published before pending fell back to zero.
	pending := m.pending.Load()
	if v, ok = m.published(k); ok || pending == 0 {
		return v, ok
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok = m.lookupLocked(k)
	m.tickLocked()
	return v, ok
}

// LoadOrStore returns the value stored for k, and loaded true, if there is
// one; otherwise it stores v and returns it.
func (m *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	if actual, ok := m.published(k); ok {
		return actual, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.tickLocked()
	if actual, ok := m.lookupLocked(k); ok {
		return actual, true
	}
	if m.dirty == nil {
		m.dirty = make(map[K]V)
	}
	m.dirty[k] = v
	m.pending.Store(int64(len(m.dirty)))
	return v, false
}

// Range calls fn on every entry, in no particular order, until fn returns
// false. It publishes what is pending first, so it sees every entry added
// before it was called; fn runs with no lock held and may use the Map.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	m.mu.Lock()
	m.publishLocked()
	r := m.read.Load()
	m.mu.Unlock()
	if r == nil {
		return
	}
	for k, v := range *r {
		if !fn(k, v) {
			return
		}
	}
}

func (m *Map[K, V]) published(k K) (v V, ok bool) {
	if r := m.read.Load(); r != nil {
		v, ok = (*r)[k]
	}
	return v, ok
}

func (m *Map[K, V]) lookupLocked(k K) (V, bool) {
	if v, ok := m.published(k); ok {
		return v, true
	}
	v, ok := m.dirty[k]
	return v, ok
}

// tickLocked counts one operation that took mu, and publishes once they
// reach the number of published entries.
func (m *Map[K, V]) tickLocked() {
	m.slow++
	if r := m.read.Load(); r == nil || m.slow >= len(*r) {
		m.publishLocked()
	}
}

func (m *Map[K, V]) publishLocked() {
	m.slow = 0
	if len(m.dirty) == 0 {
		return
	}
	next := m.dirty
	if r := m.read.Load(); r != nil {
		next = make(map[K]V, len(*r)+len(m.dirty))
		maps.Copy(next, *r)
		maps.Copy(next, m.dirty)
	}
	m.read.Store(&next)
	m.dirty = nil
	m.pending.Store(0)
}
