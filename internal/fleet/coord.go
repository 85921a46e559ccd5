// The coordinator: cuts the plan into shards, hands them to workers, tracks
// progress, steals straggler tails, survives worker death and its own
// restart, and finally merges the shard journals into one report.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// CoordOptions tunes a Coordinator.
type CoordOptions struct {
	// Dir is the coordinator's working directory: per-shard journal
	// directories plus the coord.json assignment manifest live here. A
	// restarted coordinator pointed at the same Dir resumes: finished
	// shards stay finished, running shards re-issue from their journals.
	Dir string
	// Shards is the initial shard count. Zero selects 2 (work stealing
	// rebalances, so the initial cut only has to be roughly right).
	Shards int
	// CheckpointEvery is the merged run's journal checkpoint interval.
	CheckpointEvery int
	// StealAfter is how long a shard must have been running before its tail
	// may be stolen for an idle worker. Zero selects 2s.
	StealAfter time.Duration
	// MinStealUnits is the smallest tail worth stealing. Zero selects 1.
	MinStealUnits int
	// Logf receives progress lines ("shard stolen", "merge ok", ...). Nil
	// discards them.
	Logf func(format string, args ...any)
}

func (o CoordOptions) shards() int {
	if o.Shards < 1 {
		return 2
	}
	return o.Shards
}

func (o CoordOptions) stealAfter() time.Duration {
	if o.StealAfter <= 0 {
		return 2 * time.Second
	}
	return o.StealAfter
}

func (o CoordOptions) minStealUnits() int {
	if o.MinStealUnits < 1 {
		return 1
	}
	return o.MinStealUnits
}

// shard lifecycle.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardRunning
	shardDone
)

// shardState is one shard's book entry. lo/hi are the journal descriptor
// range, fixed when the shard is created; yieldHi is the effective sweep end
// and only ever shrinks (each steal moves it down). done counts completed
// server units as reported by the owner's progress frames.
type shardState struct {
	id         int
	lo, hi     int
	yieldHi    int
	dir        string
	status     shardStatus
	owner      string
	wire       *wire
	ownerPar   int
	assignedAt time.Time
	done       int
	records    int64
	attempts   int
}

func (s *shardState) desc(units int) core.ShardDesc {
	return core.ShardDesc{Index: s.id, Lo: s.lo, Hi: s.hi, Units: units}
}

// coordManifestName is the on-disk shard-assignment book.
const coordManifestName = "coord.json"

// maxShardAttempts bounds how often one shard may fail (worker error, not
// worker death) before the whole run is declared failed.
const maxShardAttempts = 3

type coordManifest struct {
	Version int                  `json:"version"`
	Plan    string               `json:"plan"`
	Units   int                  `json:"units"`
	NextID  int                  `json:"next_id"`
	Shards  []coordManifestShard `json:"shards"`
}

type coordManifestShard struct {
	ID      int    `json:"id"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	YieldHi int    `json:"yield_hi"`
	Dir     string `json:"dir"`
	Done    bool   `json:"done"`
	Units   int    `json:"units_done"`
}

// Coordinator drives one distributed sweep.
type Coordinator struct {
	cfg   *core.Config
	opts  CoordOptions
	plan  uint64
	units int

	ln net.Listener

	mu      sync.Mutex
	cond    *sync.Cond
	shards  []*shardState
	nextID  int
	closed  bool
	failErr error
	doneCh  chan struct{}

	serving sync.WaitGroup
}

// NewCoordinator builds (or, when opts.Dir already holds a coord.json for
// this plan, restores) a coordinator over the full-plan config.
func NewCoordinator(cfg *core.Config, opts CoordOptions) (*Coordinator, error) {
	co := &Coordinator{
		cfg:    cfg,
		opts:   opts,
		plan:   cfg.PlanHash(),
		units:  cfg.PlanUnits(),
		doneCh: make(chan struct{}),
	}
	co.cond = sync.NewCond(&co.mu)
	if co.units == 0 {
		return nil, errors.New("fleet: plan has no server units")
	}
	// Shard directories travel to workers in assign frames, and workers run
	// with their own working directories — paths must be absolute. (For
	// multi-process runs the directory must be on storage every worker can
	// reach; the in-process tests and the local fleet both qualify.)
	abs, err := filepath.Abs(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: resolve dir: %w", err)
	}
	co.opts.Dir = abs
	opts = co.opts
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: create dir: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(opts.Dir, coordManifestName))
	switch {
	case err == nil:
		if err := co.restore(data); err != nil {
			return nil, err
		}
		co.logf("fleet: restored %d shards from %s", len(co.shards), opts.Dir)
	case os.IsNotExist(err):
		for _, sd := range SplitPlan(co.units, opts.shards()) {
			co.shards = append(co.shards, &shardState{
				id: sd.Index, lo: sd.Lo, hi: sd.Hi, yieldHi: sd.Hi,
				dir: co.shardDir(sd.Index),
			})
		}
		co.nextID = len(co.shards)
		if err := co.saveLocked(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fleet: read coordinator manifest: %w", err)
	}
	return co, nil
}

func (co *Coordinator) shardDir(id int) string {
	return filepath.Join(co.opts.Dir, fmt.Sprintf("shard-%03d", id))
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.opts.Logf != nil {
		co.opts.Logf(format, args...)
	}
}

// restore rebuilds shard state from a previous coordinator's manifest:
// finished shards stay finished, everything else re-pends (a shard that was
// mid-run resumes from its journal's last checkpoint on reassignment).
func (co *Coordinator) restore(data []byte) error {
	var m coordManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("fleet: coordinator manifest unreadable: %w", err)
	}
	if m.Version != 1 {
		return fmt.Errorf("fleet: coordinator manifest version %d, want 1", m.Version)
	}
	if want := fmt.Sprintf("%016x", co.plan); m.Plan != want {
		return fmt.Errorf("fleet: %s coordinates a different sweep plan (its plan hash %s, this config's %s): resume and merge refuse to mix plans",
			co.opts.Dir, m.Plan, want)
	}
	if m.Units != co.units {
		return fmt.Errorf("fleet: coordinator manifest has %d units, this config %d", m.Units, co.units)
	}
	for _, sm := range m.Shards {
		s := &shardState{
			id: sm.ID, lo: sm.Lo, hi: sm.Hi, yieldHi: sm.YieldHi,
			dir: sm.Dir, done: sm.Units,
		}
		if sm.Done {
			s.status = shardDone
		}
		co.shards = append(co.shards, s)
	}
	co.nextID = m.NextID
	return nil
}

// saveLocked writes the assignment manifest atomically. Called under mu on
// every shard transition, so a coordinator killed at any moment restarts
// with a book no older than the last transition.
func (co *Coordinator) saveLocked() error {
	m := coordManifest{Version: 1, Plan: fmt.Sprintf("%016x", co.plan), Units: co.units, NextID: co.nextID}
	for _, s := range co.shards {
		m.Shards = append(m.Shards, coordManifestShard{
			ID: s.id, Lo: s.lo, Hi: s.hi, YieldHi: s.yieldHi,
			Dir: s.dir, Done: s.status == shardDone, Units: s.done,
		})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(co.opts.Dir, coordManifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: write coordinator manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fleet: commit coordinator manifest: %w", err)
	}
	return nil
}

// Listen binds the coordinator's worker port. addr is a TCP listen address
// (":9555", "127.0.0.1:0", ...).
func (co *Coordinator) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	co.ln = ln
	co.logf("fleet: coordinating %d units in %d shards on %s", co.units, len(co.shards), ln.Addr())
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (co *Coordinator) Addr() net.Addr {
	if co.ln == nil {
		return nil
	}
	return co.ln.Addr()
}

// Run accepts workers and blocks until every shard is done, a shard fails
// maxShardAttempts times, or ctx is cancelled. Listen must have been called.
func (co *Coordinator) Run(ctx context.Context) error {
	if co.ln == nil {
		return errors.New("fleet: Run before Listen")
	}
	co.mu.Lock()
	if co.remainingLocked() == 0 {
		// Everything finished in a previous incarnation; nothing to serve.
		co.closeDoneLocked()
	}
	co.mu.Unlock()

	go func() {
		for {
			conn, err := co.ln.Accept()
			if err != nil {
				return // listener closed
			}
			co.serving.Add(1)
			go func() {
				defer co.serving.Done()
				co.serveWorker(newWire(conn))
			}()
		}
	}()

	// Periodic broadcast so workers parked in nextShard re-evaluate the
	// steal condition as StealAfter elapses even with no progress frames.
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			co.shutdown()
			return ctx.Err()
		case <-co.doneCh:
			co.mu.Lock()
			err := co.failErr
			co.mu.Unlock()
			co.shutdown()
			return err
		case <-tick.C:
			co.cond.Broadcast()
		}
	}
}

// shutdown closes the listener and wakes every parked worker loop — their
// nextShard calls observe closed and send the shutdown frame. Serve loops
// blocked reading a still-running shard (the cancellation path; a clean
// completion has none) are unwound by severing those connections.
func (co *Coordinator) shutdown() {
	co.mu.Lock()
	co.closed = true
	var running []*wire
	for _, s := range co.shards {
		if s.status == shardRunning && s.wire != nil {
			running = append(running, s.wire)
		}
	}
	co.cond.Broadcast()
	co.mu.Unlock()
	_ = co.ln.Close()
	for _, w := range running {
		w.close()
	}
	co.serving.Wait()
}

func (co *Coordinator) remainingLocked() int {
	n := 0
	for _, s := range co.shards {
		if s.status != shardDone {
			n++
		}
	}
	return n
}

func (co *Coordinator) closeDoneLocked() {
	select {
	case <-co.doneCh:
	default:
		close(co.doneCh)
	}
}

// failLocked aborts the run.
func (co *Coordinator) failLocked(err error) {
	if co.failErr == nil {
		co.failErr = err
	}
	co.closed = true
	co.closeDoneLocked()
	co.cond.Broadcast()
}

// serveWorker drives one worker connection: validate its hello, then loop
// shard assignment → progress → completion until no work remains.
func (co *Coordinator) serveWorker(w *wire) {
	defer w.close()
	hello, err := w.read()
	if err != nil || hello.Type != fHello {
		return
	}
	if want := fmt.Sprintf("%016x", co.plan); hello.Plan != want || hello.Units != co.units {
		_ = w.send(frame{Type: fReject, Reason: fmt.Sprintf(
			"worker sweeps a different plan (worker %s/%d units, coordinator %s/%d units)",
			hello.Plan, hello.Units, want, co.units)})
		co.logf("fleet: rejected worker %s: plan mismatch", hello.Name)
		return
	}
	name := hello.Name
	if name == "" {
		name = w.conn.RemoteAddr().String()
	}
	co.logf("fleet: worker %s connected (parallelism %d)", name, hello.Parallelism)

	for {
		s := co.nextShard(w, name, hello.Parallelism)
		if s == nil {
			_ = w.send(frame{Type: fShutdown})
			return
		}
		assign := frame{
			Type: fAssign, Shard: s.id, Lo: s.lo, Hi: s.hi,
			YieldHi: s.yieldHi, Dir: s.dir,
		}
		co.logf("fleet: shard %d units [%d,%d) -> worker %s", s.id, s.lo, s.yieldHi, name)
		if err := w.send(assign); err != nil {
			co.dropWorker(s, name)
			return
		}
		if !co.consumeUntilDone(w, s, name) {
			return
		}
	}
}

// consumeUntilDone reads one worker's frames for its running shard. Returns
// false when the connection died (the shard re-pends for someone else).
func (co *Coordinator) consumeUntilDone(w *wire, s *shardState, name string) bool {
	for {
		f, err := w.read()
		if err != nil {
			co.dropWorker(s, name)
			return false
		}
		switch f.Type {
		case fProgress:
			if f.Shard != s.id {
				continue
			}
			co.mu.Lock()
			s.done = f.Done
			s.records = f.Records
			co.cond.Broadcast() // steal margins moved
			co.mu.Unlock()
		case fShardDone:
			if f.Shard != s.id {
				continue
			}
			co.finishShard(s, f, name)
			return true
		}
	}
}

// dropWorker handles a dead connection: the worker's running shard goes back
// to pending and the next assignee resumes it from the journal's last
// checkpoint — nothing the dead worker checkpointed is re-swept.
func (co *Coordinator) dropWorker(s *shardState, name string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if s.status != shardRunning {
		return
	}
	s.status = shardPending
	s.owner, s.wire = "", nil
	co.logf("fleet: shard %d stolen from dead worker %s (re-issued from checkpoint, %d units / %d records journaled)",
		s.id, name, s.done, s.records)
	if err := co.saveLocked(); err != nil {
		co.failLocked(err)
		return
	}
	co.cond.Broadcast()
}

// finishShard books a shard_done frame: success finishes the shard, an error
// re-pends it up to maxShardAttempts times.
func (co *Coordinator) finishShard(s *shardState, f frame, name string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	s.owner, s.wire = "", nil
	if f.Err != "" {
		s.status = shardPending
		s.attempts++
		co.logf("fleet: shard %d failed on worker %s (attempt %d/%d): %s", s.id, name, s.attempts, maxShardAttempts, f.Err)
		if s.attempts >= maxShardAttempts {
			co.failLocked(fmt.Errorf("fleet: shard %d failed %d times, last: %s", s.id, s.attempts, f.Err))
			return
		}
	} else {
		s.status = shardDone
		s.done = f.Done
		s.records = f.Records
		co.logf("fleet: shard %d done on worker %s (%d units, %d records)", s.id, name, f.Done, f.Records)
	}
	if err := co.saveLocked(); err != nil {
		co.failLocked(err)
		return
	}
	if co.remainingLocked() == 0 {
		co.closeDoneLocked()
	}
	co.cond.Broadcast()
}

// nextShard blocks until a shard is available for this worker — a pending
// one, or a tail stolen from a straggler — and marks it running. Returns nil
// when the run is over (all done, failed, or shut down).
func (co *Coordinator) nextShard(w *wire, name string, parallelism int) *shardState {
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if co.closed || co.remainingLocked() == 0 {
			return nil
		}
		var pick *shardState
		for _, s := range co.shards {
			if s.status == shardPending && (pick == nil || s.id < pick.id) {
				pick = s
			}
		}
		if pick == nil {
			pick = co.stealLocked()
		}
		if pick != nil {
			pick.status = shardRunning
			pick.owner, pick.wire, pick.ownerPar = name, w, parallelism
			pick.assignedAt = time.Now()
			if err := co.saveLocked(); err != nil {
				co.failLocked(err)
				return nil
			}
			return pick
		}
		co.cond.Wait()
	}
}

// stealLocked splits the straggler with the largest unstarted tail: the
// victim's effective end drops to the split point (a yield frame tells it to
// shed those units) and the tail becomes a fresh pending shard with its own
// journal. The split point is victim.lo + done + margin, where the margin
// covers every unit the victim's pools could already have in flight (the
// correct and fused sweeps each run `parallelism` workers), so stolen units
// are, at worst, briefly double-swept — never lost — and the first-wins
// merge dedups the overlap.
func (co *Coordinator) stealLocked() *shardState {
	minTail := co.opts.minStealUnits()
	var victim *shardState
	victimSplit, victimTail := 0, 0
	for _, s := range co.shards {
		if s.status != shardRunning || s.wire == nil {
			continue
		}
		if time.Since(s.assignedAt) < co.opts.stealAfter() {
			continue
		}
		margin := 2*s.ownerPar + 1
		split := s.lo + s.done + margin
		if split <= s.lo {
			split = s.lo + 1
		}
		tail := s.yieldHi - split
		if tail < minTail {
			continue
		}
		if victim == nil || tail > victimTail {
			victim, victimSplit, victimTail = s, split, tail
		}
	}
	if victim == nil {
		return nil
	}
	thief := &shardState{
		id: co.nextID, lo: victimSplit, hi: victim.yieldHi, yieldHi: victim.yieldHi,
		dir: co.shardDir(co.nextID), status: shardPending,
	}
	co.nextID++
	co.shards = append(co.shards, thief)
	oldHi := victim.yieldHi
	victim.yieldHi = victimSplit
	co.logf("fleet: shard stolen — tail [%d,%d) of shard %d (worker %s) re-cut as shard %d",
		victimSplit, oldHi, victim.id, victim.owner, thief.id)
	// Tell the victim to shed the tail. A failed send means the victim is
	// dying; its connection teardown re-pends its shard, and the thief shard
	// covers the tail either way.
	if err := victim.wire.send(frame{Type: fYield, Shard: victim.id, Hi: victimSplit}); err != nil {
		co.logf("fleet: yield to worker %s failed (%v); relying on re-issue", victim.owner, err)
	}
	return thief
}

// Finish merges the shard journals and runs the full pipeline over the
// merged journal: replay folds every shard's records through the ordinary
// resume path (first-wins on stolen-tail overlap), determination and
// analysis run once over the whole plan, and the report comes out
// byte-identical to a single-process run. Call after Run returns nil.
func (co *Coordinator) Finish(ctx context.Context) (*core.Result, error) {
	co.mu.Lock()
	if n := co.remainingLocked(); n != 0 {
		co.mu.Unlock()
		return nil, fmt.Errorf("fleet: %d shards unfinished", n)
	}
	dirs := make([]string, 0, len(co.shards))
	ids := make([]int, 0, len(co.shards))
	for _, s := range co.shards {
		ids = append(ids, s.id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, s := range co.shards {
			if s.id == id {
				dirs = append(dirs, s.dir)
			}
		}
	}
	co.mu.Unlock()

	merged := filepath.Join(co.opts.Dir, "merged")
	if err := os.RemoveAll(merged); err != nil {
		return nil, fmt.Errorf("fleet: clear merged dir: %w", err)
	}
	st, err := core.MergeShardJournals(merged, co.cfg, dirs)
	if err != nil {
		return nil, err
	}
	j, err := core.OpenJournal(merged, co.cfg, core.JournalOptions{CheckpointEvery: co.opts.CheckpointEvery})
	if err != nil {
		return nil, err
	}
	cfg := *co.cfg
	cfg.Journal = j
	res, runErr := core.NewPipeline(&cfg).Run(ctx)
	if cerr := j.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return res, runErr
	}
	co.logf("fleet: merge ok (%d shard dirs, %d segments, %d bytes; %d answered replayed) [%s]",
		st.Dirs, st.Segments, st.Bytes, j.ReplayedAnswered(), j.ReplayStats())
	return res, nil
}
