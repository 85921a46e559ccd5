package core

import (
	"net/netip"
	"sort"
	"sync"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// sweepKind tags which collection pass a probe belonged to, so each sweep's
// end-of-sweep re-queue pass drains only its own failures.
type sweepKind uint8

const (
	sweepURs sweepKind = iota
	sweepCorrect
	sweepProtective
)

// probeFailure is one failed (server, domain, type) probe, parked in the
// failure book until the re-queue pass retries it.
type probeFailure struct {
	ns     NameserverInfo
	domain dns.Name
	qtype  dns.Type
	class  dnsio.FailClass
	sweep  sweepKind
	pos    probePos // what the journal names the probe by
}

// covShards slices the coverage book by server address, like the collector's
// other shared books, so sweep workers never contend on one lock.
const covShards = 32

// serverCov is one server's completeness tally. failed is derived:
// attempted - answered equals the number of failure records still on file.
type serverCov struct {
	attempted int64
	answered  int64
	recovered int64
}

// covShard is one slice of the coverage book: per-server tallies plus the
// failure records for servers hashing here.
type covShard struct {
	mu       sync.Mutex
	per      map[netip.Addr]*serverCov
	failures []probeFailure
}

// ServerCoverage is one server's measurement-completeness summary.
type ServerCoverage struct {
	Addr      netip.Addr
	Attempted int64
	Answered  int64
	Failed    int64
	// Recovered counts probes that failed in the main sweep but answered in
	// the re-queue pass (a subset of Answered).
	Recovered int64
}

// Coverage summarises measurement completeness for a collection run: how
// much of the planned (server, domain, type) probe matrix actually produced
// a validated DNS response, and what happened to the rest. It is the
// robustness counterpart to the Queries speed counter: a chaos run that
// finishes fast but silently lost a third of its probes is not a
// measurement.
type Coverage struct {
	// Attempted is the number of unique probes the sweep planned and issued
	// (re-queue retries do not count again).
	Attempted int64
	// Answered is how many probes eventually got a validated response,
	// including those recovered by the re-queue pass. Responses with
	// non-NOERROR rcodes count: the server answered.
	Answered int64
	// RetriedRecovered is how many failed probes the end-of-sweep re-queue
	// pass turned into answers.
	RetriedRecovered int64
	// BreakerTrips is how many times any server's circuit breaker opened.
	BreakerTrips int64
	// Stalls is how many times the stall watchdog cancelled a wedged probe.
	Stalls int64
	// FailedByClass histograms the probes still unanswered after the
	// re-queue pass, keyed by dnsio.FailClass name.
	FailedByClass map[string]int64
	// PerServer breaks the totals down by server, sorted by address.
	PerServer []ServerCoverage
}

// Failed returns the number of probes that never got an answer.
func (c *Coverage) Failed() int64 { return c.Attempted - c.Answered }

// AnsweredRatio returns Answered/Attempted (1 for an empty plan) — the
// headline completeness figure the acceptance gate tracks.
func (c *Coverage) AnsweredRatio() float64 {
	if c.Attempted == 0 {
		return 1
	}
	return float64(c.Answered) / float64(c.Attempted)
}

// covShardOf hashes a server address onto its coverage shard.
func (c *Collector) covShardOf(addr netip.Addr) *covShard {
	return &c.cov[addrShard(addr, covShards)]
}

// bookSweep books one server's batch of probe outcomes: counts once per
// (server, sweep) batch, failure records appended for the re-queue pass.
// recovered counts probes that failed and then answered inside the job — the
// fused sweep's canary retry, or a journaled failure followed by a journaled
// answer on a resumed run; such probes are attempted once.
func (c *Collector) bookSweep(server netip.Addr, attempted, answered, recovered int64, fails []probeFailure) {
	if attempted == 0 && len(fails) == 0 {
		return
	}
	s := c.covShardOf(server)
	s.mu.Lock()
	sc := s.per[server]
	if sc == nil {
		sc = &serverCov{}
		s.per[server] = sc
	}
	sc.attempted += attempted
	sc.answered += answered
	sc.recovered += recovered
	s.failures = append(s.failures, fails...)
	s.mu.Unlock()
}

// bookRecovered upgrades one previously-failed probe to answered.
func (c *Collector) bookRecovered(server netip.Addr) {
	s := c.covShardOf(server)
	s.mu.Lock()
	if sc := s.per[server]; sc != nil {
		sc.answered++
		sc.recovered++
	}
	s.mu.Unlock()
}

// drainFailures removes and returns every parked failure of one sweep.
func (c *Collector) drainFailures(kind sweepKind) []probeFailure {
	var out []probeFailure
	for i := range c.cov {
		s := &c.cov[i]
		s.mu.Lock()
		kept := s.failures[:0]
		for _, f := range s.failures {
			if f.sweep == kind {
				out = append(out, f)
			} else {
				kept = append(kept, f)
			}
		}
		s.failures = kept
		s.mu.Unlock()
	}
	return out
}

// refile parks a (re-classified) failure back in the book.
func (c *Collector) refile(f probeFailure) {
	s := c.covShardOf(f.ns.Addr)
	s.mu.Lock()
	s.failures = append(s.failures, f)
	s.mu.Unlock()
}

// sortFailures puts a drained failure batch into canonical (server, domain,
// type) order so the re-queue pass issues a deterministic query plan.
func sortFailures(fails []probeFailure) {
	sort.Slice(fails, func(i, j int) bool {
		a, b := fails[i], fails[j]
		if cmp := a.ns.Addr.Compare(b.ns.Addr); cmp != 0 {
			return cmp < 0
		}
		if a.domain != b.domain {
			return a.domain < b.domain
		}
		return a.qtype < b.qtype
	})
}

// Coverage snapshots the completeness books. Call it after the sweeps of
// interest; the pipeline attaches the final snapshot to its Result.
func (c *Collector) Coverage() *Coverage {
	cov := &Coverage{FailedByClass: make(map[string]int64)}
	perServer := make(map[netip.Addr]*ServerCoverage)
	for i := range c.cov {
		s := &c.cov[i]
		s.mu.Lock()
		for addr, sc := range s.per {
			perServer[addr] = &ServerCoverage{
				Addr:      addr,
				Attempted: sc.attempted,
				Answered:  sc.answered,
				Failed:    sc.attempted - sc.answered,
				Recovered: sc.recovered,
			}
			cov.Attempted += sc.attempted
			cov.Answered += sc.answered
			cov.RetriedRecovered += sc.recovered
		}
		for _, f := range s.failures {
			cov.FailedByClass[f.class.String()]++
		}
		s.mu.Unlock()
	}
	for _, sc := range perServer {
		cov.PerServer = append(cov.PerServer, *sc)
	}
	sort.Slice(cov.PerServer, func(i, j int) bool {
		return cov.PerServer[i].Addr.Compare(cov.PerServer[j].Addr) < 0
	})
	if c.client.Breakers != nil {
		cov.BreakerTrips = c.client.Breakers.Trips()
	}
	cov.Stalls = c.wd.Stalls()
	return cov
}
