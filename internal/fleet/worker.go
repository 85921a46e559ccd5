// The worker: dials the coordinator, sweeps assigned shards with the full
// journaled pipeline (collect-only, as every shard run is), reports per-unit
// progress, and sheds its shard's tail when the coordinator yields it away.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs.
	Name string
	// Parallelism is the per-shard sweep pool size. Zero inherits the
	// config's resolution (GOMAXPROCS).
	Parallelism int
	// CheckpointEvery is the shard journal's checkpoint interval.
	CheckpointEvery int
	// DieAtRecords, when positive, kills the worker once its shard journal
	// holds that many records — the fleet-smoke "kill one worker mid-shard"
	// hook. The default death severs the connection and aborts the run
	// in-process; Die overrides the action (the CLI uses os.Exit so the
	// process death is real).
	DieAtRecords int64
	Die          func()
	// Logf receives progress lines. Nil discards them.
	Logf func(format string, args ...any)
}

// RunWorker connects to a coordinator and sweeps shards until the
// coordinator sends shutdown (clean exit, returns nil), rejects the hello,
// or the connection/context dies.
func RunWorker(ctx context.Context, addr string, full *core.Config, opts WorkerOptions) error {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	plan := full.PlanHash()
	units := full.PlanUnits()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: dial coordinator %s: %w", addr, err)
	}
	w := newWire(conn)
	defer w.close()
	// The connection has no protocol-level keepalive; a dead coordinator
	// surfaces as a read error. Context cancellation closes the conn so the
	// reader unblocks.
	stop := context.AfterFunc(ctx, func() { w.close() })
	defer stop()

	hello := frame{
		Type: fHello, Plan: fmt.Sprintf("%016x", plan), Units: units,
		Name: opts.Name, Parallelism: opts.Parallelism,
	}
	if err := w.send(hello); err != nil {
		return fmt.Errorf("fleet: hello: %w", err)
	}

	// One goroutine owns the read side: yield frames lower the running
	// shard's cursor in place (they arrive mid-sweep), every other frame
	// flows to the main loop.
	var running atomic.Pointer[core.Shard]
	mainCh := make(chan frame, 4)
	readErr := make(chan error, 1)
	go func() {
		defer close(mainCh)
		for {
			f, err := w.read()
			if err != nil {
				readErr <- err
				return
			}
			if f.Type == fYield {
				// A yield for a shard this worker no longer runs (it finished
				// just as the steal fired) is ignored — the thief re-sweeps
				// the tail either way.
				if sh := running.Load(); sh != nil && sh.Desc.Index == f.Shard && sh.Yield(f.Hi) {
					logf("fleet: worker %s: shard %d tail yielded, new end unit %d", opts.Name, f.Shard, f.Hi)
				}
				continue
			}
			mainCh <- f
		}
	}()

	for {
		var f frame
		var ok bool
		select {
		case <-ctx.Done():
			return ctx.Err()
		case f, ok = <-mainCh:
		}
		if !ok {
			err := <-readErr
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("fleet: coordinator connection lost: %w", err)
		}
		switch f.Type {
		case fReject:
			return fmt.Errorf("fleet: coordinator rejected worker: %s", f.Reason)
		case fShutdown:
			logf("fleet: worker %s: no work left, shutting down", opts.Name)
			return nil
		case fAssign:
			if err := runShard(ctx, w, &running, full, f, opts, logf); err != nil {
				return err
			}
		}
	}
}

// errWorkerDied is returned when the DieAtRecords hook fired.
var errWorkerDied = errors.New("fleet: worker died (DieAtRecords)")

// runShard sweeps one assigned shard through the journaled pipeline and
// reports the outcome. The shard's config slice reproduces exactly the probes
// a single-process run would issue for these units, collect-only; running
// publishes its shard value to the reader goroutine for the sweep's duration
// so a yield frame can lower the cursor mid-run.
func runShard(ctx context.Context, w *wire, running *atomic.Pointer[core.Shard], full *core.Config, f frame, opts WorkerOptions, logf func(string, ...any)) error {
	sd := core.ShardDesc{Index: f.Shard, Lo: f.Lo, Hi: f.Hi, Units: full.PlanUnits()}
	logf("fleet: worker %s: assigned %s (sweep end %d) in %s", opts.Name, sd, f.YieldHi, f.Dir)

	scfg := core.ShardConfig(full, sd)
	if opts.Parallelism > 0 {
		scfg.Parallelism = opts.Parallelism
	}
	if f.YieldHi > 0 {
		scfg.Shard.Yield(f.YieldHi)
	}
	running.Store(scfg.Shard)
	defer running.Store(nil)

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	j, err := core.OpenJournal(f.Dir, scfg, core.JournalOptions{CheckpointEvery: opts.CheckpointEvery})
	if err != nil {
		// A bad assignment (or a clobbered directory) fails this shard, not
		// the worker: report it and let the coordinator re-issue or abort.
		return sendDone(w, f.Shard, 0, 0, err)
	}
	if opts.DieAtRecords > 0 {
		die := opts.Die
		if die == nil {
			// Default death: sever the coordinator connection and abort the
			// run mid-flight, from inside the append path — the closest
			// in-process stand-in for SIGKILL. Unflushed records past the
			// last checkpoint are lost, exactly like a real death.
			die = func() {
				w.close()
				cancel(errWorkerDied)
			}
		}
		var once sync.Once
		limit := opts.DieAtRecords
		j.AppendHook = func(total int64) {
			if total >= limit {
				once.Do(die)
			}
		}
	}

	scfg.Shard.Progress = func(done int) {
		// Best-effort: a lost progress frame only delays work stealing.
		_ = w.send(frame{Type: fProgress, Shard: f.Shard, Done: done, Records: j.Appended()})
	}
	scfg.Journal = j

	_, runErr := core.NewPipeline(scfg).Run(runCtx)
	if cerr := j.Close(); runErr == nil {
		runErr = cerr
	}
	if cause := context.Cause(runCtx); cause != nil && errors.Is(cause, errWorkerDied) {
		return errWorkerDied
	}
	if runErr != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return sendDone(w, f.Shard, scfg.Shard.Done(), j.Appended(), runErr)
}

func sendDone(w *wire, shard, done int, records int64, runErr error) error {
	df := frame{Type: fShardDone, Shard: shard, Done: done, Records: records}
	if runErr != nil {
		df.Err = runErr.Error()
	}
	if err := w.send(df); err != nil {
		return fmt.Errorf("fleet: report shard %d: %w", shard, err)
	}
	return nil
}
