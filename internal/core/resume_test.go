// Kill-and-resume equivalence: a sweep interrupted at any journal position —
// checkpoint boundary, mid-segment, even with a torn tail — must, after
// resume, produce a report byte-identical to an uninterrupted run, without
// re-querying any probe the journal already answered.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
// loss or flapping would not satisfy that, by design.
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

// TestResumeByteIdenticalAcrossCuts kills the deterministic-fault chaos
// pipeline at a spread of journal positions — checkpoint boundaries
// (CheckpointEvery=8) and mid-segment cuts — resumes each from its journal,
// and asserts the final report is byte-identical to the uninterrupted run.
func TestResumeByteIdenticalAcrossCuts(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := renderRecords(baseline)

	cuts := []int64{1, 3, 8, 16, 24, 40, 64, 100, 120, 150}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			_, _, _, err := runJournaled(t, dir, applyDeterministicFaults, context.Background(),
				func(j *Journal, cancel context.CancelFunc) {
					j.AppendHook = func(total int64) {
						if total == cut {
							cancel()
						}
					}
				})
			if err == nil {
				t.Fatalf("cut %d: interrupted run reported no error", cut)
			}
			res, j2, _, err := runJournaled(t, dir, applyDeterministicFaults, context.Background(), nil)
			if err != nil {
				t.Fatalf("cut %d: resume failed: %v", cut, err)
			}
			// The overlapped sweeps race for the journal's first appends, so a
			// small cut may hold only failure records (the faulted nameservers
			// fail fast while the correct sweep is still answering); replayed
			// state of either kind proves the resume took.
			if !j2.Resumed() || j2.ReplayedAnswered()+j2.ReplayedFailures() == 0 {
				t.Fatalf("cut %d: resume replayed nothing (resumed=%v, answered=%d, failed=%d)",
					cut, j2.Resumed(), j2.ReplayedAnswered(), j2.ReplayedFailures())
			}
			if got := renderRecords(res); got != want {
				t.Errorf("cut %d: resumed report differs from uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s",
					cut, got, want)
			}
			checkCoverageConsistent(t, res.Coverage)
			if res.Coverage.Attempted != chaosPlanSize {
				t.Errorf("cut %d: resumed coverage attempted %d, want %d (replay must not double-count)",
					cut, res.Coverage.Attempted, chaosPlanSize)
			}
		})
	}
}

// TestResumeAtDifferentParallelism pins the plan-hash contract: parallelism
// is not part of the sweep identity, so a run interrupted at 4 workers
// resumes at 1 and at 16 with byte-identical output.
func TestResumeAtDifferentParallelism(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := renderRecords(baseline)

	for _, workers := range []int{1, 16} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			_, _, _, err := runJournaled(t, dir, applyDeterministicFaults, context.Background(),
				func(j *Journal, cancel context.CancelFunc) {
					j.AppendHook = func(total int64) {
						if total == 60 {
							cancel()
						}
					}
				})
			if err == nil {
				t.Fatal("interrupted run reported no error")
			}
			fx2 := newChaosFixture(t, 11)
			applyDeterministicFaults(fx2)
			fx2.cfg.Parallelism = workers
			j2, err := OpenJournal(dir, fx2.cfg, JournalOptions{CheckpointEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			fx2.cfg.Journal = j2
			res, err := NewPipeline(fx2.cfg).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRecords(res); got != want {
				t.Errorf("resume at parallelism %d diverged from baseline", workers)
			}
		})
	}
}

// TestResumeTornTail corrupts the newest segment after an interrupted run —
// the torn-write a hard kill leaves — and asserts the resume discards the
// tail, re-queries what it covered, and still converges to the baseline.
func TestResumeTornTail(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := renderRecords(baseline)

	dir := t.TempDir()
	_, _, _, err = runJournaled(t, dir, applyDeterministicFaults, context.Background(),
		func(j *Journal, cancel context.CancelFunc) {
			j.AppendHook = func(total int64) {
				if total == 80 {
					cancel()
				}
			}
		})
	if err == nil {
		t.Fatal("interrupted run reported no error")
	}
	// Tear the tail of the newest non-empty segment (workers that had
	// nothing left to probe leave empty segments behind).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	var newestSize int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() >= 16 && e.Name() > newest {
			newest, newestSize = e.Name(), info.Size()
		}
	}
	if newest == "" {
		t.Fatal("no non-empty segments written")
	}
	if err := os.Truncate(filepath.Join(dir, newest), newestSize-7); err != nil {
		t.Fatal(err)
	}

	res, j2, _, err := runJournaled(t, dir, applyDeterministicFaults, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.TornSegments() == 0 {
		t.Error("torn segment went undetected")
	}
	if got := renderRecords(res); got != want {
		t.Errorf("resume over a torn tail diverged from baseline:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
}

// TestResumeZeroRequeries is the acceptance check on query accounting: in a
// fault-free world, the resumed run's fabric sees exactly the probes the
// journal did NOT already answer — zero re-queries of answered probes.
func TestResumeZeroRequeries(t *testing.T) {
	dir := t.TempDir()
	_, _, fx1, err := runJournaled(t, dir, nil, context.Background(),
		func(j *Journal, cancel context.CancelFunc) {
			j.AppendHook = func(total int64) {
				if total == 90 {
					cancel()
				}
			}
		})
	if err == nil {
		t.Fatal("interrupted run reported no error")
	}
	if fx1.fabric.Exchanges() == 0 {
		t.Fatal("interrupted run never touched the fabric")
	}

	res, j2, fx2, err := runJournaled(t, dir, nil, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := int64(j2.ReplayedAnswered())
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	// Fault-free: every live probe answers on its first exchange, failures
	// never file, so the resumed fabric's exchange count is exactly the
	// unanswered remainder of the plan.
	if got, want := fx2.fabric.Exchanges(), int64(chaosPlanSize)-replayed; got != want {
		t.Errorf("resumed run issued %d exchanges, want %d (plan %d - %d replayed): answered probes were re-queried",
			got, want, chaosPlanSize, replayed)
	}
	if res.Coverage.Attempted != chaosPlanSize || res.Coverage.Failed() != 0 {
		t.Errorf("resumed coverage off: %+v", res.Coverage)
	}
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
// victim server until its context is cancelled — the real-world socket hang
// the watchdog exists for. Later exchanges pass through, so the re-queue
// pass can recover the stalled probe.
type stallTransport struct {
	inner  dnsio.Transport
	victim netip.Addr

	mu     sync.Mutex
	wedged bool
	stalls int
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
			return nil, ctx.Err()
		}
	}
	return s.inner.Exchange(ctx, buf, server, packed, tcp)
}

// TestWatchdogUnwedgesStalledWorker wedges one nameserver's first exchange
// forever and asserts the watchdog cancels the stuck probe (classing it
// "stalled"), the sweep completes, and the re-queue pass recovers the probe
// on its second, unwedged attempt.
func TestWatchdogUnwedgesStalledWorker(t *testing.T) {
	fx := newChaosFixture(t, 11)
	fx.cfg.Transport = &stallTransport{
		inner:  &dnsio.SimTransport{Fabric: fx.fabric, Src: fx.cfg.SrcAddr},
		victim: fx.nsAddrs[4],
	}
	fx.cfg.Watchdog = &WatchdogConfig{
		Deadline:   40 * time.Millisecond,
		CheckEvery: 5 * time.Millisecond,
		Grace:      200 * time.Millisecond,
	}
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
		t.Fatal("sweep wedged: watchdog never unstuck the stalled worker")
	}
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	cov := res.Coverage
	checkCoverageConsistent(t, cov)
	checkNoFalseRecords(t, fx, res)
	if cov.Stalls == 0 {
		t.Error("watchdog never fired")
	}
	if cov.RetriedRecovered == 0 {
		t.Error("re-queue pass recovered none of the stalled probes")
	}
	if cov.Attempted != chaosPlanSize {
		t.Errorf("attempted = %d, want %d", cov.Attempted, chaosPlanSize)
	}
	// Every stalled probe recovers on retry, so coverage ends complete.
	if cov.Failed() != 0 {
		t.Errorf("unrecovered failures remain: %+v", cov.FailedByClass)
	}
}
