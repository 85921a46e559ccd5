package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCoordRestore feeds arbitrary bytes to the coordinator's book restore:
// it either refuses them or yields shards with distinct non-negative ids
// below next_id, ranges 0 <= lo <= yield_hi <= hi <= units, and effective
// ranges covering every unit; the restored book saves with every directory
// derived from its shard id, and that save restores to the same book.
func FuzzCoordRestore(f *testing.F) {
	const plan, units = 0xfeed, 12
	book := func(nextID int, shards ...coordManifestShard) []byte {
		data, err := json.Marshal(coordManifest{Version: 1, Plan: fmt.Sprintf("%016x", plan),
			Units: units, NextID: nextID, Shards: shards})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(book(3, coordManifestShard{ID: 0, Lo: 0, Hi: 4, YieldHi: 4},
		coordManifestShard{ID: 1, Lo: 4, Hi: 8, YieldHi: 8},
		coordManifestShard{ID: 2, Lo: 8, Hi: 12, YieldHi: 12}))
	// Shard 0's tail [2,4) stolen as shard 3; shard 1 finished.
	f.Add(book(4, coordManifestShard{ID: 0, Lo: 0, Hi: 4, YieldHi: 2, Units: 1},
		coordManifestShard{ID: 1, Lo: 4, Hi: 8, YieldHi: 8, Done: true, Units: 4},
		coordManifestShard{ID: 2, Lo: 8, Hi: 12, YieldHi: 12},
		coordManifestShard{ID: 3, Lo: 2, Hi: 4, YieldHi: 4}))
	f.Add(book(1, coordManifestShard{ID: 0, Lo: 0, Hi: 12, YieldHi: 12, Dir: "/elsewhere"}))
	f.Add(book(2, coordManifestShard{ID: 0, Lo: 0, Hi: 6, YieldHi: 6},
		coordManifestShard{ID: 0, Lo: 6, Hi: 12, YieldHi: 12}))
	f.Add(book(1, coordManifestShard{ID: 1, Lo: 0, Hi: 12, YieldHi: 12}))
	f.Add(book(2, coordManifestShard{ID: 0, Lo: 0, Hi: 5, YieldHi: 5},
		coordManifestShard{ID: 1, Lo: 6, Hi: 12, YieldHi: 12}))
	f.Add(book(1, coordManifestShard{ID: -1, Lo: 0, Hi: 13, YieldHi: 14}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		co := &Coordinator{plan: plan, units: units, opts: CoordOptions{Dir: dir}}
		if err := co.restore(data); err != nil {
			return
		}
		ids := make(map[int]bool)
		covered := make([]bool, units)
		for _, s := range co.shards {
			if s.id < 0 || ids[s.id] || s.id >= co.nextID {
				t.Fatalf("restored shard id %d (next_id %d) negative, repeated or not below next_id", s.id, co.nextID)
			}
			ids[s.id] = true
			if s.lo < 0 || s.lo > s.yieldHi || s.yieldHi > s.hi || s.hi > units {
				t.Fatalf("restored shard %d range lo %d, yield_hi %d, hi %d", s.id, s.lo, s.yieldHi, s.hi)
			}
			for u := s.lo; u < s.yieldHi; u++ {
				covered[u] = true
			}
		}
		for u, ok := range covered {
			if !ok {
				t.Fatalf("restored book leaves unit %d unswept", u)
			}
		}

		if err := co.saveLocked(); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(filepath.Join(dir, coordManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m coordManifest
		if err := json.Unmarshal(saved, &m); err != nil {
			t.Fatal(err)
		}
		for _, sm := range m.Shards {
			if sm.Dir != co.shardDir(sm.ID) {
				t.Fatalf("shard %d saved with dir %q, want %q", sm.ID, sm.Dir, co.shardDir(sm.ID))
			}
		}
		again := &Coordinator{plan: plan, units: units, opts: CoordOptions{Dir: dir}}
		if err := again.restore(saved); err != nil {
			t.Fatalf("a saved book does not restore: %v", err)
		}
		if again.nextID != co.nextID || len(again.shards) != len(co.shards) {
			t.Fatalf("restore of the save: next_id %d, %d shards; want %d, %d",
				again.nextID, len(again.shards), co.nextID, len(co.shards))
		}
		for i := range co.shards {
			if *again.shards[i] != *co.shards[i] {
				t.Fatalf("shard %d restores as %+v, saved %+v", i, *again.shards[i], *co.shards[i])
			}
		}
	})
}
