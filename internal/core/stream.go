// Streaming stage plumbing for the overlapped pipeline: the fused
// nameserver-facing sweep that emits per-server UR batches as they finalize,
// and the error selection that keeps a root cause visible when one stage's
// failure cancels its siblings.
//
// Determinism note. Chaos fault draws are pure hashes of (fabric seed,
// endpoint, per-endpoint exchange sequence), so a run is reproducible exactly
// when the order of exchanges to each endpoint is a pure function of the
// configuration. The fused sweep keeps its own probes in that order: one
// worker owns a nameserver for its whole job — canary probes first, then the
// shuffled targets, then the in-job canary retry. It is not the only sender:
// the correct-record sweep runs concurrently, and the open resolvers it asks
// recurse into measured nameservers, so a nameserver's exchange sequence
// interleaves both sweeps in scheduling order. Faults whose outcome does not
// depend on the sequence (ApplyDeterministicChaos's SERVFAIL, blackhole and
// wrong-ID servers) reproduce; a probabilistic fault on a nameserver does not.
// The correct sweep's re-queue pass runs on its own goroutine and scratch so
// the two tails can overlap.
package core

import (
	"context"
	"errors"

	"repro/internal/dns"
)

// streamBacklog bounds the UR batch channel between the fused sweep and the
// determine workers. Batches buffer here while the correct sweep (the
// determine gate) is still running; a full buffer back-pressures the sweep,
// which only delays emission and never reorders any endpoint's exchanges.
const streamBacklog = 64

// pickErr returns the most diagnostic of the stage errors: the first one
// that is not itself a cancellation (a journal write failure, say, whose
// cancel then swept through the sibling stages), else the first non-nil.
func pickErr(errs ...error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return fallback
}

// collectNameservers is the overlapped pipeline's fused nameserver sweep:
// protective-canary collection and UR collection in one pass. Each
// nameserver is one job — canary probes, then every non-delegated target,
// then one in-job retry of the job's own failed canary probes — so a
// server's protective records are final before its URs are emitted, and the
// determine stage can classify a batch as soon as the correct database is
// ready, without waiting for the rest of the sweep.
//
// Probes are booked and journaled under their own sweep kinds
// (sweepProtective / sweepURs), which is what coverage accounting, the
// failure book, and journal resume are keyed by.
func (c *Collector) collectNameservers(ctx context.Context, db *ProtectiveDB, emit func([]*UR)) error {
	err := c.sweepPool(ctx, []sweepKind{sweepProtective, sweepURs}, len(c.cfg.OpenResolvers), c.cfg.Nameservers, func(w *sweepWorker, unit int, ns NameserverInfo) error {
		urs, err := c.collectNSFused(ctx, w, unit, ns, db)
		if err == nil {
			emit(urs)
		}
		return err
	})
	if err != nil {
		return err
	}
	// End-of-sweep re-queue of the failed UR probes (canary probes had their
	// in-job retry). Every NS job is done, so these retries are the only
	// remaining traffic to the nameserver endpoints and their per-endpoint
	// order — canonical, single goroutine — is deterministic.
	var recovered []*UR
	var strs internTable
	err = c.requeueOn(ctx, sweepURs, func(f probeFailure, resp *dns.Message) {
		recovered = ursFromResponse(&strs, f.ns, f.domain, f.qtype, resp, recovered)
	})
	if err != nil {
		return err
	}
	emit(recovered)
	return nil
}

// collectNSFused runs one nameserver's fused job. The exchange order to this
// endpoint — canary, targets, canary retry — is a pure function of the
// configuration, which is what keeps chaos runs reproducible (see the
// package comment above). On a resumed run the journaled probes of the job
// are folded in the same order and simply never reach the endpoint.
func (c *Collector) collectNSFused(ctx context.Context, w *sweepWorker, unit int, ns NameserverInfo, db *ProtectiveDB) ([]*UR, error) {
	j := c.startJob(w, unit, ns)
	var canaryFails []probeFailure // protective failures, retried in-job
	defer func() {
		j.fails = append(j.fails, canaryFails...)
		j.book()
	}()

	// Phase 1: protective canary probes — the endpoint's first exchanges.
	err := c.sweepCanary(ctx, &j, db)
	canaryFails, j.fails = j.fails, nil
	if err != nil {
		return nil, err
	}

	// Phase 2: the UR sweep over this server's shuffled targets.
	out, err := c.sweepTargets(ctx, &j, nil)
	if err != nil {
		return out, err
	}

	// Phase 3: one in-job retry of this job's failed canary probes. The UR
	// phase put tens of exchanges between the failure and the retry, giving
	// flap windows and breakers the same chance to recover that an
	// end-of-sweep re-queue provides — without letting another goroutine
	// interleave on this endpoint. A server's protective set is
	// therefore final when its job ends, which is what lets the caller emit
	// the job's URs for immediate classification.
	still, issued, err := c.retry(ctx, &w.scratch, w.seg, canaryFails, func(f probeFailure, resp *dns.Message) {
		addProtectiveAnswers(db, ns.Addr, f.qtype, resp)
	})
	recovered := int64(len(canaryFails) - len(still))
	j.issued += issued
	j.answered += recovered
	j.recovered += recovered
	canaryFails = still
	return out, err
}
