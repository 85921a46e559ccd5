package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dnsio"
	"repro/internal/simnet"
)

// minSweepReps is how many repetitions a sweep workload finishes even when
// the window has ended.
const minSweepReps = 5

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// generate builds this seed's world at the small scale (551 nameservers x
// 406 targets at seed 42).
func (r *run) generate(rep int) (*repro.World, error) {
	id := r.tr.begin("scenario.generate", 0, rep)
	w, err := repro.GenerateWorld(repro.SmallScale(), r.seed)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	return w, nil
}

// sweepCounts are the exact outputs of a sweep that every repetition must
// reproduce.
type sweepCounts struct {
	queries, urs, suspicious     int64
	attempted, answered, retried int64
	trips                        int64
}

func countsOf(res *core.Result) sweepCounts {
	return sweepCounts{
		queries: res.Queries, urs: int64(len(res.URs)), suspicious: int64(len(res.Suspicious)),
		attempted: res.Coverage.Attempted, answered: res.Coverage.Answered,
		retried: res.Coverage.RetriedRecovered, trips: res.Coverage.BreakerTrips,
	}
}

// timedSweep runs one pipeline (closing its journal, when it has one, inside
// the timed part) after a collection, so every repetition starts from the
// same heap state.
func (r *run) timedSweep(name string, rep int, pipe *core.Pipeline, j *repro.Journal) (*core.Result, time.Duration, error) {
	runtime.GC()
	id := r.tr.begin(name, 0, rep)
	t0 := time.Now()
	res, err := pipe.Run(context.Background())
	if err == nil && j != nil {
		cid := r.tr.begin("core.journal_close", id, rep)
		err = j.Close()
		r.tr.end(cid)
	}
	wall := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	if st := res.Stages; st != nil {
		r.tr.child("core.stage.correct", id, 0, st.Correct)
		r.tr.child("core.stage.nameservers", id, 0, st.Nameservers)
		r.tr.child("core.stage.determine", id, st.Correct, st.Determine)
		r.tr.child("core.stage.analyze", id, st.Wall-st.Analyze, st.Analyze)
	}
	return res, wall, nil
}

// plainSweep is the one-shot pipeline: no journal, no faults.
func (r *run) plainSweep(w *repro.World, rep int) (*core.Result, time.Duration, error) {
	return r.timedSweep("core.pipeline_run", rep, repro.NewPipeline(w), nil)
}

// moreReps decides whether a sweep workload starts another repetition: always
// up to the minimum, then only while at least half of one is expected to fit
// in the window.
func moreReps(done int, elapsed, window time.Duration) bool {
	if done < minSweepReps {
		return true
	}
	return elapsed+elapsed/time.Duration(2*done) < window
}

// runSweepCold measures the one-shot path: every repetition generates a
// fresh world, so the open resolvers' caches are cold and the correct-record
// stage is most of the sweep. A reference probe runs before the first
// repetition and after every one; a repetition's generation and sweep are
// both read against the two probes round it.
func runSweepCold(r *run) error {
	if r.tr != nil {
		return r.tracedSweepCold()
	}
	var setups, rawSetups, ops, rawOps []float64
	var first sweepCounts
	before, err := r.ref.run()
	if err != nil {
		return err
	}
	start := time.Now()
	for rep := 0; moreReps(rep, time.Since(start), r.window); rep++ {
		runtime.GC() // the previous repetition's world and result are garbage
		t0 := time.Now()
		w, err := r.generate(rep)
		if err != nil {
			return err
		}
		runtime.GC()
		setup := time.Since(t0).Seconds()
		res, wall, err := r.plainSweep(w, rep)
		if err != nil {
			return err
		}
		after, err := r.ref.run()
		if err != nil {
			return err
		}
		c := countsOf(res)
		if rep == 0 {
			first = c
		} else if c != first {
			r.wrong("rep %d counts %+v differ from the first sweep's %+v", rep, c, first)
		}
		setups = append(setups, normalised(setup, before, after))
		rawSetups = append(rawSetups, setup)
		ops = append(ops, normalised(ms(wall), before, after))
		rawOps = append(rawOps, ms(wall))
		before = after
		r.attempted += c.attempted
		r.failed += c.attempted - c.answered
	}
	r.set("setup_s", setups...)
	r.setSweepOps(ops, rawOps, first.queries)
	// A handful of sweeps has no percentile worth the name; the mean, unlike
	// the median, still feels a slow one, and spreads far less from run to
	// run than the maximum does.
	r.set("tail_ms", mean(ops))
	r.notes["raw_setup_s"] = median(rawSetups)
	r.notes["raw_tail_ms"] = mean(rawOps)
	r.notes["slowest_ms"] = maxOf(ops)
	return nil
}

// setSweepOps reports a sweep workload's op_ms and qps from its
// repetitions' normalised walls, and the raw ones as notes.
func (r *run) setSweepOps(ops, rawOps []float64, queries int64) {
	r.set("op_ms", ops...)
	qps := make([]float64, len(ops))
	for i, o := range ops {
		qps[i] = float64(queries) / (o / 1e3)
	}
	r.set("qps", qps...)
	r.notes["raw_op_ms"] = median(rawOps)
	r.notes["raw_qps"] = float64(queries) / (median(rawOps) / 1e3)
	r.notes["queries_per_sweep"] = float64(queries)
	r.notes["reps"] = float64(len(ops))
}

// installChaos puts the workload's fault profile on every nameserver. It is
// re-installed before every sweep and every resume because installing a
// profile restarts its draw sequence at 0, which is what makes every
// repetition meet the same faults.
func installChaos(w *repro.World) {
	for i, ns := range w.Nameservers {
		p := simnet.FaultProfile{LossRate: 0.10, WrongIDRate: 0.05}
		switch i {
		case 0:
			p.ServFail = true
		case 1:
			p.Blackhole = true
		case 2, 3:
			p.FlapPeriod, p.FlapDown = 16, 3
		}
		dnsio.SetSimFault(w.Fabric, ns.Addr, p)
	}
}

// chaosRep is one journaled sweep under faults and the resume over the
// journal it wrote.
type chaosRep struct {
	sweep, resume     *core.Result
	sweepMs, resumeMs float64
	journalRecords    int64
	journalMB         float64
	closeMs           float64
	openReplayMs      float64
	replayed          int
}

func (r *run) chaosRep(w *repro.World, rep int) (*chaosRep, error) {
	dir, err := r.scratch("journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &chaosRep{}

	installChaos(w)
	pipe, j, err := repro.NewJournaledPipeline(w, dir, repro.JournalOptions{})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	res, wall, err := r.timedSweep("core.pipeline_run_journaled", rep, pipe, j)
	if err != nil {
		return nil, err
	}
	out.sweep, out.sweepMs, out.journalRecords = res, ms(wall), j.Appended()
	if out.journalMB, err = dirMB(dir); err != nil {
		return nil, err
	}

	installChaos(w)
	runtime.GC()
	id := r.tr.begin("core.resume", 0, rep)
	t0 := time.Now()
	oid := r.tr.begin("core.journal_open_replay", id, rep)
	pipe, j, err = repro.NewJournaledPipeline(w, dir, repro.JournalOptions{})
	r.tr.end(oid)
	if err != nil {
		return nil, fmt.Errorf("reopen journal: %w", err)
	}
	out.openReplayMs = ms(time.Since(t0))
	out.replayed = j.ReplayedAnswered()
	res, err = pipe.Run(context.Background())
	if err == nil {
		tc := time.Now()
		err = j.Close()
		out.closeMs = ms(time.Since(tc))
	}
	out.resumeMs = ms(time.Since(t0))
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	out.resume = res
	w.Fabric.ClearFaults()
	return out, nil
}

func dirMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return float64(n) / (1 << 20), nil
}

// checkChaosRep holds a repetition to the first one's exact counts, and the
// resume to the sweep: it must replay exactly what the sweep had answered and
// query again only what had failed.
func (r *run) checkChaosRep(rep int, c, first *chaosRep) {
	if got, want := countsOf(c.sweep), countsOf(first.sweep); got != want {
		r.wrong("rep %d sweep counts %+v differ from the first's %+v", rep, got, want)
	}
	if got, want := countsOf(c.resume), countsOf(first.resume); got != want {
		r.wrong("rep %d resume counts %+v differ from the first's %+v", rep, got, want)
	}
	if int64(c.replayed) != c.sweep.Coverage.Answered {
		r.wrong("rep %d resume replayed %d answers, the sweep had %d", rep, c.replayed, c.sweep.Coverage.Answered)
	}
	if c.resume.Queries >= c.sweep.Queries/100 {
		r.wrong("rep %d resume issued %d queries; it should re-issue only the %d failed probes",
			rep, c.resume.Queries, c.sweep.Coverage.Failed())
	}
	if c.journalRecords != first.journalRecords {
		r.wrong("rep %d journal holds %d records, the first held %d", rep, c.journalRecords, first.journalRecords)
	}
}

// warmSetUp generates the world and sweeps it once, which fills the open
// resolvers' caches: the state a daemon's second and later sweeps start from.
func (r *run) warmSetUp() (*repro.World, *core.Result, float64, error) {
	t0 := time.Now()
	w, err := r.generate(0)
	if err != nil {
		return nil, nil, 0, err
	}
	res, _, err := r.plainSweep(w, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	return w, res, time.Since(t0).Seconds(), nil
}

// runSweepWarm measures the daemon's re-sweep path under faults with a
// journal, and the resume over that journal. Reference probes stand round
// the set-up and after every repetition.
func runSweepWarm(r *run) error {
	if r.tr != nil {
		return r.tracedSweepWarm()
	}
	before, err := r.ref.run()
	if err != nil {
		return err
	}
	w, _, setup, err := r.warmSetUp()
	if err != nil {
		return err
	}
	after, err := r.ref.run()
	if err != nil {
		return err
	}
	r.set("setup_s", normalised(setup, before, after))
	r.notes["raw_setup_s"] = setup

	var ops, rawOps, resumes, rawResumes []float64
	var first *chaosRep
	start := time.Now()
	for rep := 0; moreReps(rep, time.Since(start), r.window); rep++ {
		before = after
		c, err := r.chaosRep(w, rep+1)
		if err != nil {
			return err
		}
		if after, err = r.ref.run(); err != nil {
			return err
		}
		if first == nil {
			first = c
		}
		r.checkChaosRep(rep+1, c, first)
		ops = append(ops, normalised(c.sweepMs, before, after))
		rawOps = append(rawOps, c.sweepMs)
		resumes = append(resumes, normalised(c.resumeMs, before, after))
		rawResumes = append(rawResumes, c.resumeMs)
		// An operation is a probe; a probe fails when its outcome is not the
		// one the injected faults fix (the 664 probes the blackholed and
		// lossy servers leave unanswered at seed 42 are the correct output,
		// reported as dnsio.failed_probes).
		r.attempted += c.sweep.Coverage.Attempted
		if d := c.sweep.Coverage.Failed() - first.sweep.Coverage.Failed(); d != 0 {
			r.failed += max(d, -d)
		}
	}
	r.setSweepOps(ops, rawOps, first.sweep.Queries)
	r.set("tail_ms", resumes...)
	r.notes["raw_tail_ms"] = median(rawResumes)
	r.notes["unanswered_probes_per_sweep"] = float64(first.sweep.Coverage.Failed())
	return nil
}
