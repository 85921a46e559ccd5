package readmap

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentLoadOrStoreOneValue: goroutines racing to store their own
// value for the same keys all get back one value per key, the one Load and
// Range see afterwards.
func TestConcurrentLoadOrStoreOneValue(t *testing.T) {
	const workers, keys = 8, 2000
	var m Map[int, *int]
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*int, keys)
			for i := 0; i < keys; i++ {
				k := (i*7 + w) % keys // each worker in its own order
				v := new(int)
				*v = w
				actual, loaded := m.LoadOrStore(k, v)
				if !loaded && actual != v {
					t.Errorf("key %d: stored %p, got back %p", k, v, actual)
				}
				got[w][k] = actual
				if l, ok := m.Load(k); !ok || l != actual {
					t.Errorf("key %d: Load after LoadOrStore gave %p, %v; want %p", k, l, ok, actual)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		want, ok := m.Load(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for w := range got {
			if got[w][k] != want {
				t.Fatalf("key %d: worker %d got %p, the map holds %p", k, w, got[w][k], want)
			}
		}
	}
	seen := 0
	m.Range(func(k int, v *int) bool {
		if want, _ := m.Load(k); v != want {
			t.Errorf("Range gave key %d %p, Load %p", k, v, want)
		}
		seen++
		return true
	})
	if seen != keys {
		t.Errorf("Range saw %d entries, want %d", seen, keys)
	}
}

// TestEntriesSurviveRepublish: every entry stays visible to Load while other
// goroutines add entries and the published map is replaced under it, and
// Range, called at any moment, sees at least every entry added before it.
func TestEntriesSurviveRepublish(t *testing.T) {
	const writers, perWriter = 4, 3000
	var m Map[uint64, uint64]
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				k := w<<32 | i
				m.LoadOrStore(k, k*3)
				// Every key this writer added so far, after each publish the
				// additions may have caused.
				if i%256 == 0 {
					for j := uint64(0); j <= i; j++ {
						if v, ok := m.Load(w<<32 | j); !ok || v != (w<<32|j)*3 {
							t.Errorf("writer %d: key %d lost (%d, %v)", w, j, v, ok)
							return
						}
					}
					n := uint64(0)
					m.Range(func(k, v uint64) bool {
						if k>>32 == w {
							n++
						}
						return true
					})
					if n < i+1 {
						t.Errorf("writer %d: Range saw %d of its %d entries", w, n, i+1)
						return
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < perWriter; i++ {
			if _, ok := m.Load(w<<32 | i); !ok {
				t.Fatalf("key %d/%d missing after the writers finished", w, i)
			}
		}
	}
}

// TestMissesAreNotLocked: once what was added is published, a lookup of an
// absent key reads only the published map — the case of a zone-cut walk,
// which misses on most labels it tries.
func TestMissesAreNotLocked(t *testing.T) {
	var m Map[string, int]
	m.LoadOrStore("example.com", 1)
	m.Range(func(string, int) bool { return true }) // publishes
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan bool)
	go func() {
		_, absent := m.Load("www.example.com")
		v, present := m.Load("example.com")
		done <- !absent && present && v == 1
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("a lookup gave the wrong answer")
		}
	case <-time.After(10 * time.Second):
		t.Error("a lookup waited for the lock with nothing pending")
	}
}

// TestRepublishIsAmortised: a table built one entry at a time, each entry
// looked up before it is added and twice after — how a fabric binds its
// hosts — copies O(n) entries in all, not O(n) per entry.
func TestRepublishIsAmortised(t *testing.T) {
	const n = 20000
	var m Map[int, int]
	copied := 0
	last := m.read.Load()
	for k := 0; k < n; k++ {
		if _, ok := m.Load(k); ok {
			t.Fatalf("key %d present before it was added", k)
		}
		m.LoadOrStore(k, k)
		for i := 0; i < 2; i++ {
			if v, ok := m.Load(k); !ok || v != k {
				t.Fatalf("key %d: %d, %v", k, v, ok)
			}
		}
		if r := m.read.Load(); r != last {
			copied += len(*r)
			last = r
		}
	}
	// Four locked operations per entry publish each time the table has grown
	// by a quarter: about 4n copies in all. Republishing per entry would be
	// about n²/2.
	if copied > 8*n {
		t.Errorf("publishing %d entries copied %d", n, copied)
	}
}
