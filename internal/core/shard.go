package core

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// ShardDesc identifies one contiguous shard of a probe plan: the half-open
// range [Lo, Hi) over the plan's server units (open resolvers first, then
// nameservers, both in config order) out of Units total. Index labels the
// shard for logs and manifests and is part of the shard identity — a journal
// written for shard 3 never resumes as shard 5, even over the same range.
type ShardDesc struct {
	Index int
	Lo    int
	Hi    int
	Units int
}

func (sd ShardDesc) String() string {
	return fmt.Sprintf("shard %d (units [%d,%d) of %d)", sd.Index, sd.Lo, sd.Hi, sd.Units)
}

// PlanUnits is the number of shardable work units in the plan: one per open
// resolver plus one per nameserver. Sharding never splits a server across
// shards — each endpoint's exchange order stays a pure function of the
// configuration, which is what keeps chaos runs reproducible across
// re-sharding.
func (c *Config) PlanUnits() int {
	return len(c.OpenResolvers) + len(c.Nameservers)
}

// firstUnit is the full-plan number of the config's unit 0: a shard's
// Desc.Lo, zero on a whole plan. Journal records name a server by its
// full-plan unit, so a shard's records read the same in a merged directory.
func (c *Config) firstUnit() int {
	if c.Shard == nil {
		return 0
	}
	return c.Shard.Desc.Lo
}

// ShardPlanHash extends a full plan hash with a shard descriptor, giving each
// shard journal its own identity under the shared plan.
func ShardPlanHash(fullPlan uint64, sd ShardDesc) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "full=%016x\nshard=%d:[%d,%d)/%d\n", fullPlan, sd.Index, sd.Lo, sd.Hi, sd.Units)
	return h.Sum64()
}

// Shard is what a sliced Config knows about the plan it was cut from, and
// the fleet worker's handle on a running shard sweep. A config that carries
// one behaves differently in three ways:
//
//   - the pipeline stops after collection and journaling — records are swept
//     into Result.URs but never classified or analyzed, because determination
//     needs the whole plan's correct-record database and so happens once, on
//     the merged journal;
//   - OpenJournal binds the directory to the shard's identity (full plan hash
//     plus Desc) instead of the sliced config's own plan hash;
//   - the sweep pools stop feeding at the yield cursor and count finished
//     units into Progress.
//
// Build one with ShardConfig. It must not be copied after first use.
type Shard struct {
	// Desc locates the slice in the full plan. It is the shard journal's
	// identity and never changes, however far the cursor is lowered: yielded
	// units still count toward the plan hash, so the journal stays mergeable
	// with the journal of whoever swept them instead.
	Desc ShardDesc

	// Progress, when non-nil, observes the running count of server units
	// whose sweep job completed without error, from the worker goroutine that
	// ran the unit. It must be safe for concurrent use and fast (it runs on
	// the sweep path). Set it before the run starts.
	Progress func(done int)

	plan uint64       // the full plan's hash
	end  atomic.Int64 // yield cursor: the first plan unit this sweep leaves alone
	done atomic.Int64
}

// ShardConfig slices a full-plan config down to the units in [sd.Lo, sd.Hi):
// open resolvers occupy unit indices [0, R), nameservers [R, R+N), both in
// config order. Everything else — seed, targets, query types, world wiring —
// is shared, so the slice's plan is itself deterministic. A range that
// reaches outside the plan is clamped here and refused by OpenJournal, which
// holds the slice to its descriptor.
func ShardConfig(full *Config, sd ShardDesc) *Config {
	c := *full
	r := len(full.OpenResolvers)
	lo, hi := clampRange(sd.Lo, sd.Hi, r)
	c.OpenResolvers = full.OpenResolvers[lo:hi]
	lo, hi = clampRange(sd.Lo-r, sd.Hi-r, len(full.Nameservers))
	c.Nameservers = full.Nameservers[lo:hi]
	c.Shard = &Shard{Desc: sd, plan: full.PlanHash()}
	c.Shard.end.Store(int64(sd.Hi))
	return &c
}

// clampRange bounds [lo, hi) to [0, n); an inverted range comes back empty.
func clampRange(lo, hi, n int) (int, int) {
	lo = min(max(lo, 0), n)
	return lo, min(max(hi, lo), n)
}

// Yield lowers the sweep's end to plan unit hi: units at or past it belong
// to someone else now and are dropped as they come up for dispatch — not
// when the plan is built — so a worker can shed the tail of its shard
// mid-run. The cursor only moves down; Yield reports whether it moved.
func (s *Shard) Yield(hi int) bool {
	for {
		cur := s.end.Load()
		if int64(hi) >= cur {
			return false
		}
		if s.end.CompareAndSwap(cur, int64(hi)) {
			return true
		}
	}
}

// Done returns how many server units have completed so far.
func (s *Shard) Done() int { return int(s.done.Load()) }

// owns reports whether the unit at position local in the sliced config's
// plan is still below the yield cursor. A whole-plan run (nil shard) owns
// every unit.
func (s *Shard) owns(local int) bool {
	return s == nil || int64(s.Desc.Lo+local) < s.end.Load()
}

// unitDone books one completed unit; a no-op on a whole-plan run.
func (s *Shard) unitDone() {
	if s == nil {
		return
	}
	d := s.done.Add(1)
	if s.Progress != nil {
		s.Progress(int(d))
	}
}
