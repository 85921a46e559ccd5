// Named regressions of an interrupted sweep: a cancelled run's partial
// result, a journal that cannot be written, and a wedged exchange. Kill and
// resume at any journal position, torn or not, is TestJournaledSweepMatchesOracle's.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// renderRecords is the byte-identity fingerprint of a run's report: every
// collected UR plus the suspicious subset, in their canonical order.
func renderRecords(res *Result) string {
	var sb strings.Builder
	for _, u := range res.URs {
		fmt.Fprintf(&sb, "ur|%s|%s|%s|%d|%s\n",
			u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData)
	}
	for _, u := range res.Suspicious {
		fmt.Fprintf(&sb, "sus|%s|%s|%s|%d|%s|%s\n",
			u.Server.Addr, u.Domain, u.Type, u.TTL, u.RData, u.Category)
	}
	return sb.String()
}

// applyDeterministicFaults installs only sequence-independent faults: a
// SERVFAIL server, a blackholed server, and a fully-spoofing server answer
// the same way no matter how many exchanges preceded a probe, so an
// interrupted-then-resumed run (whose per-endpoint sequence counters reset)
// still sees the exact failure surface an uninterrupted run saw. Rate-based
// loss or flapping would not satisfy that, by design, which is why
// TestJournaledSweepMatchesOracle draws applyKitchenSink only for a run that
// is never resumed.
func applyDeterministicFaults(fx *chaosFixture) {
	dnsio.SetSimFault(fx.fabric, fx.nsAddrs[1], simnet.FaultProfile{ServFail: true})
	dnsio.SetSimFault(fx.fabric, fx.nsAddrs[0], simnet.FaultProfile{Blackhole: true})
	dnsio.SetSimFault(fx.fabric, fx.nsAddrs[3], simnet.FaultProfile{WrongIDRate: 1})
}

// runJournaled builds a fresh fixture over the shared seed, opens (or
// resumes) the journal in dir, and runs the pipeline under ctx.
func runJournaled(t *testing.T, dir string, faults func(*chaosFixture), ctx context.Context, hook func(*Journal, context.CancelFunc)) (*Result, *Journal, *chaosFixture, error) {
	t.Helper()
	fx := newChaosFixture(t, 11)
	if faults != nil {
		faults(fx)
	}
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if hook != nil {
		hook(j, cancel)
	}
	fx.cfg.Journal = j
	res, err := NewPipeline(fx.cfg).Run(cctx)
	if cerr := j.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return res, j, fx, err
}

// TestGracefulDrainPartialResult pins the cancellation contract: a cancelled
// pipeline returns a non-nil partial Result carrying the coverage and query
// books accumulated before the interruption, alongside the error.
func TestGracefulDrainPartialResult(t *testing.T) {
	dir := t.TempDir()
	res, j, _, err := runJournaled(t, dir, nil, context.Background(),
		func(j *Journal, cancel context.CancelFunc) {
			j.AppendHook = func(total int64) {
				if total == 10 {
					cancel()
				}
			}
		})
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled in its chain", err)
	}
	if res == nil || res.Coverage == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Coverage.Attempted == 0 || res.Queries == 0 {
		t.Errorf("partial books empty: attempted=%d queries=%d", res.Coverage.Attempted, res.Queries)
	}
	checkCoverageConsistent(t, res.Coverage)
	// The journal must hold at least the 10 records appended before cancel.
	if j.Appended() < 10 {
		t.Errorf("journal holds %d records, want >= 10", j.Appended())
	}
}

// TestJournalWriteFailureStopsSweep yanks the journal directory out from
// under the run: segment creation fails, every worker stops, and the sweep
// surfaces the journal error instead of silently continuing unjournaled.
func TestJournalWriteFailureStopsSweep(t *testing.T) {
	dir := t.TempDir()
	fx := newChaosFixture(t, 11)
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	fx.cfg.Journal = j
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err == nil {
		t.Fatal("pipeline succeeded with an unwritable journal")
	}
	if !strings.Contains(err.Error(), "journal") {
		t.Errorf("error does not name the journal: %v", err)
	}
	if res == nil {
		t.Error("no partial result on journal failure")
	}
}

// stallTransport wraps the sim transport but wedges the first exchange to a
// victim server until its context ends — the real-world socket hang the
// client's deadline exists for. Later exchanges pass through, so a retry can
// recover the stalled probe.
type stallTransport struct {
	inner  dnsio.Transport
	victim netip.Addr

	mu       sync.Mutex
	wedged   bool
	stalls   int
	wedgeErr error // what ended the wedge
}

func (s *stallTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if server.Addr() == s.victim {
		s.mu.Lock()
		first := !s.wedged
		s.wedged = true
		if first {
			s.stalls++
		}
		s.mu.Unlock()
		if first {
			<-ctx.Done()
			s.mu.Lock()
			s.wedgeErr = ctx.Err()
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}
	return s.inner.Exchange(ctx, buf, server, packed, tcp)
}

// TestWatchdogUnwedgesStalledWorker wedges one nameserver's first exchange
// forever and asserts the client's per-exchange deadline ends the stuck probe
// (a timeout, not a cancellation), the sweep completes, and a retry recovers
// the probe on its second, unwedged attempt. The run waits the deadline out
// once.
func TestWatchdogUnwedgesStalledWorker(t *testing.T) {
	fx := newChaosFixture(t, 11)
	st := &stallTransport{
		inner:  &dnsio.SimTransport{Fabric: fx.fabric, Src: fx.cfg.SrcAddr},
		victim: fx.nsAddrs[4],
	}
	fx.cfg.Transport = st
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = NewPipeline(fx.cfg).Run(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep wedged: the client's deadline never unstuck the stalled worker")
	}
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	cov := res.Coverage
	checkCoverageConsistent(t, cov)
	checkNoFalseRecords(t, fx, res)
	st.mu.Lock()
	stalls, wedgeErr := st.stalls, st.wedgeErr
	st.mu.Unlock()
	if stalls == 0 {
		t.Fatal("the victim's first exchange never wedged")
	}
	if !errors.Is(wedgeErr, context.DeadlineExceeded) {
		t.Errorf("wedge ended by %v, want the client's deadline", wedgeErr)
	}
	if cov.RetriedRecovered == 0 {
		t.Error("no retry recovered the stalled probe")
	}
	if cov.Attempted != chaosPlanSize {
		t.Errorf("attempted = %d, want %d", cov.Attempted, chaosPlanSize)
	}
	// Every stalled probe recovers on retry, so coverage ends complete.
	if cov.Failed() != 0 {
		t.Errorf("unrecovered failures remain: %+v", cov.FailedByClass)
	}
}

// cancelTransport wraps the sim transport and cancels the sweep from inside
// its at-th exchange, which then fails with the cancellation, as a socket
// read does when its context ends.
type cancelTransport struct {
	inner  dnsio.Transport
	at     int64
	n      atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if c.n.Add(1) == c.at {
		c.cancel()
		return nil, ctx.Err()
	}
	return c.inner.Exchange(ctx, buf, server, packed, tcp)
}

// TestResumeAfterCancelBooksNoRecovery: a probe the sweep's cancellation cuts
// off inside its exchange is not a failure. The journal holds no failure
// record for it, and the fault-free sweep's resume books no failure and no
// recovery, as the uninterrupted run does.
func TestResumeAfterCancelBooksNoRecovery(t *testing.T) {
	dir := t.TempDir()
	var ct *cancelTransport
	_, _, _, err := runJournaled(t, dir, func(fx *chaosFixture) {
		fx.cfg.Parallelism = 1
		ct = &cancelTransport{inner: &dnsio.SimTransport{Fabric: fx.fabric, Src: fx.cfg.SrcAddr}, at: 100}
		fx.cfg.Transport = ct
	}, context.Background(), func(_ *Journal, cancel context.CancelFunc) { ct.cancel = cancel })
	if !errors.Is(err, context.Canceled) || ct.n.Load() < ct.at {
		t.Fatalf("the run ended after %d exchanges with %v, want a cancellation in exchange %d", ct.n.Load(), err, ct.at)
	}
	res, j, _, err := runJournaled(t, dir, nil, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cov := res.Coverage; j.ReplayedFailures() != 0 || cov.Failed() != 0 || cov.RetriedRecovered != 0 || cov.Attempted != chaosPlanSize {
		t.Errorf("the journal held %d failures; the resume attempted %d of %d probes, failed %d and recovered %d",
			j.ReplayedFailures(), cov.Attempted, chaosPlanSize, cov.Failed(), cov.RetriedRecovered)
	}
}
