// Package fleet distributes one probe plan across worker processes.
//
// The unit of distribution is a server unit — one open resolver or one
// nameserver, the same granularity the collector's worker pools already
// schedule at. A shard is a contiguous range of units; a worker sweeps its
// shard with the ordinary journaled pipeline (chaos, breakers, deadlines,
// graceful drain all apply) in collect-only mode, and the coordinator merges
// the shard journals through the resume path into one report that is
// byte-identical to a single-process run of the same plan+seed.
//
// Sharding never splits a server across shards, so each endpoint's exchange
// order stays a pure function of the configuration — the property the
// deterministic chaos machinery and the byte-identity pins depend on.
package fleet

import "repro/internal/core"

// SplitPlan cuts [0, units) into n contiguous, near-even shards. Shard sizes
// differ by at most one (the remainder spreads over the first shards); n is
// clamped to [1, units] so no shard is empty.
func SplitPlan(units, n int) []core.ShardDesc {
	if n < 1 {
		n = 1
	}
	if n > units {
		n = units
	}
	if units <= 0 {
		return nil
	}
	out := make([]core.ShardDesc, 0, n)
	base, rem := units/n, units%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, core.ShardDesc{Index: i, Lo: lo, Hi: lo + size, Units: units})
		lo += size
	}
	return out
}
