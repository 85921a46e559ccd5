package urwatch

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// SweepFunc runs one measurement sweep and returns the classified result.
// cmd/urwatchd wires this to the streaming pipeline (optionally journaled,
// so an interrupted sweep resumes instead of restarting); tests substitute
// cheaper producers.
type SweepFunc func(ctx context.Context) (*core.Result, error)

// WatcherConfig tunes the sweep scheduler.
type WatcherConfig struct {
	// Sweep produces each generation's raw material. Required.
	Sweep SweepFunc
	// Interval is the pause between the end of one sweep and the start of
	// the next. Zero or negative means back-to-back sweeps.
	Interval time.Duration
	// OnGeneration, when non-nil, observes every publish: the sealed
	// generation and its diff against the predecessor. Called on the
	// scheduler goroutine after the swap.
	OnGeneration func(g *Generation, d *GenDiff)
	// OnSweepError, when non-nil, observes every failed sweep with the
	// consecutive-failure count (1 on the first failure of a streak).
	// Called on the scheduler goroutine; the previous generation keeps
	// serving throughout (stale-on-error).
	OnSweepError func(err error, consecutive int)
	// Staleness, when non-nil, is installed on the store as its staleness/
	// mirroring policy (a nil Clock inherits the watcher clock).
	Staleness *StalenessPolicy
	// Clock stamps generations; nil uses time.Now.
	Clock Clock
}

// Health is a point-in-time snapshot of the watcher's condition, served by
// the front-ends' health endpoints. Status is the staleness health machine's
// state: ok, degraded (consecutive sweep failures), or stale (generation age
// past the configured bound) — see staleness.go.
type Health struct {
	Status              string        `json:"status"`
	Generation          uint64        `json:"generation"`
	Sweeps              int           `json:"sweeps"`
	ConsecutiveFailures int           `json:"consecutive_failures"`
	GenerationAgeSec    float64       `json:"generation_age_seconds"`
	MaxStalenessSec     float64       `json:"max_staleness_seconds,omitempty"`
	LastSweepAt         time.Time     `json:"last_sweep_at"`
	LastSweepTook       time.Duration `json:"last_sweep_took_ns"`
	LastError           string        `json:"last_error,omitempty"`
	Verdicts            int           `json:"verdicts"`
	Events              uint64        `json:"events"`
}

// Watcher periodically re-sweeps a world and publishes each sweep as a new
// verdict-store generation. One watcher owns one store; it is the store's
// only writer.
type Watcher struct {
	cfg   WatcherConfig
	store *Store

	mu      sync.Mutex
	sweeps  int
	lastAt  time.Time
	took    time.Duration
	lastErr error
}

// NewWatcher builds a watcher over a fresh store.
func NewWatcher(cfg WatcherConfig) *Watcher {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	w := &Watcher{cfg: cfg, store: NewStore()}
	if cfg.Staleness != nil {
		p := *cfg.Staleness
		if p.Clock == nil {
			p.Clock = cfg.Clock
		}
		if p.SweepInterval == 0 {
			p.SweepInterval = cfg.Interval
		}
		w.store.SetPolicy(p)
	}
	return w
}

// Store returns the watcher's verdict store.
func (w *Watcher) Store() *Store { return w.store }

// Health reports the watcher's current condition, including the staleness
// state machine's reading against the store's policy.
func (w *Watcher) Health() Health {
	st := w.store.Staleness(w.cfg.Clock())
	w.mu.Lock()
	defer w.mu.Unlock()
	g := w.store.Current()
	h := Health{
		Status:              st.State.String(),
		Generation:          g.Seq,
		Sweeps:              w.sweeps,
		ConsecutiveFailures: st.ConsecutiveFailures,
		GenerationAgeSec:    st.Age.Seconds(),
		MaxStalenessSec:     st.MaxStaleness.Seconds(),
		LastSweepAt:         w.lastAt,
		LastSweepTook:       w.took,
		Verdicts:            g.Total(),
		Events:              w.store.Log().LastSeq(),
	}
	if w.lastErr != nil {
		h.LastError = w.lastErr.Error()
	}
	return h
}

// SweepOnce runs a single sweep and publishes its generation. Returns the
// diff against the previous generation.
func (w *Watcher) SweepOnce(ctx context.Context) (*GenDiff, error) {
	if w.cfg.Sweep == nil {
		return nil, errors.New("urwatch: no sweep function configured")
	}
	t0 := w.cfg.Clock()
	res, err := w.cfg.Sweep(ctx)
	at := w.cfg.Clock()
	if err != nil {
		w.mu.Lock()
		w.lastAt, w.took, w.lastErr = at, at.Sub(t0), err
		w.mu.Unlock()
		// Stale-on-error: the previous generation keeps serving. Record the
		// failure so the health machine can degrade, and tell the observer.
		// A sweep torn down by shutdown is not a degradation signal.
		if ctx.Err() == nil {
			consec := w.store.NoteSweepFailure(err)
			if w.cfg.OnSweepError != nil {
				w.cfg.OnSweepError(err, consec)
			}
		}
		return nil, err
	}
	next := SnapshotFromResult(res, w.store.Current().Seq+1, w.cfg.Clock())
	// The sweep counts once its generation is out, in the step Health reads
	// both under, so no reading pairs a sweep with the generation before it.
	w.mu.Lock()
	d := w.store.Publish(next)
	w.lastAt, w.took, w.lastErr = at, at.Sub(t0), nil
	w.sweeps++
	w.mu.Unlock()
	if w.cfg.OnGeneration != nil {
		w.cfg.OnGeneration(next, d)
	}
	return d, nil
}

// Run sweeps until ctx is cancelled or maxSweeps successful sweeps complete
// (maxSweeps <= 0 means no bound), counting those SweepOnce made before Run
// was called. A failed sweep does not publish — the previous generation
// keeps serving — and does not count toward maxSweeps; the scheduler
// retries after the interval. Returns nil on a clean stop (bound reached or
// ctx cancelled).
func (w *Watcher) Run(ctx context.Context, maxSweeps int) error {
	done := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return maxSweeps > 0 && w.sweeps >= maxSweeps
	}
	for !done() {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if _, err := w.SweepOnce(ctx); err != nil && ctx.Err() != nil {
			return nil
		}
		if done() {
			return nil
		}
		if w.cfg.Interval > 0 {
			t := time.NewTimer(w.cfg.Interval)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil
			case <-t.C:
			}
		}
	}
	return nil
}
