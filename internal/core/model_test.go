// The journaled sweep against its single-process oracle: a seeded model draws
// how a sweep is split, interrupted, resumed and carried, and holds every draw
// to the report one uninterrupted run gives.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// modelSeeds is how many draws TestJournaledSweepMatchesOracle makes, seeds 1
// to modelSeeds. Its census fails if they stop reaching a cell.
const modelSeeds = 100

// The fault profiles a draw sweeps under. The kitchen sink's loss, spoofing
// and flapping follow each endpoint's exchange sequence, which a resume
// restarts, so it is drawn only for a run that is never resumed.
var (
	profileNames = []string{"none", "deterministic", "kitchen-sink"}
	profiles     = []func(*chaosFixture){func(*chaosFixture) {}, applyDeterministicFaults, applyKitchenSink}
)

// sweepLeg is one process: a run of its part's plan, maybe cancelled at a
// journal record and torn after.
type sweepLeg struct {
	par, ckpt, sync int
	kill            int64 // cancel once the journal holds this many records; 0: never
	tear            int   // then cut 1+(tear-1)%(n-1) bytes of the newest segment's n-byte last frame; 0: no tear
}

// sweepPart is a journal directory and the legs that write it, each resuming
// the one before: the whole plan, or a shard when shard.Units is set. A shard
// may yield its tail, once yield units are done, to an overlapping thief.
type sweepPart struct {
	shard, thief ShardDesc
	yield        int
	legs         []sweepLeg
}

// sweepDraw is one seed's sweep. A whole-plan draw is one part whose last leg
// finishes; a shard draw's parts cut the plan, their journals are merged
// (after a merge stopped between segments, if stopMerge) and the merged
// directory is resumed at mergedPar.
type sweepDraw struct {
	world, profile int64
	transport      string
	parts          []sweepPart
	stopMerge      bool
	mergedPar      int
}

// drawSweep draws one seed's sweep of a plan of units server units.
func drawSweep(rng *rand.Rand, units int) sweepDraw {
	pars := []int{1, 2, 4, 16}
	d := sweepDraw{world: 11 + 12*rng.Int63n(2), profile: rng.Int63n(3), transport: transportSweepKinds[rng.Intn(3)],
		stopMerge: rng.Intn(3) == 0, mergedPar: pars[rng.Intn(4)]}
	// leg draws a process; with plan > 0 it is killed at one of about plan
	// records, the first ones most often, and torn half the time.
	leg := func(plan int) sweepLeg {
		l := sweepLeg{par: pars[rng.Intn(4)], ckpt: []int{1, 8, 1024}[rng.Intn(3)], sync: rng.Intn(2)}
		if plan > 0 {
			l.kill, l.tear = 1+rng.Int63n(1+rng.Int63n(int64(plan))), rng.Intn(2)*(1+rng.Intn(1<<10))
		}
		return l
	}
	n := 1 + rng.Intn(4)
	if d.profile == 2 {
		n = 1 // see profiles
	}
	if d.profile == 2 || rng.Intn(2) == 0 {
		p := sweepPart{}
		for i := 0; i < n; i++ {
			kill := 0
			if i < n-1 && rng.Intn(4) > 0 {
				kill = chaosPlanSize
			}
			p.legs = append(p.legs, leg(kill))
		}
		d.parts = []sweepPart{p}
		return d
	}
	cuts := []int{0, units}
	for len(cuts) < n+1 {
		if c := 1 + rng.Intn(units-1); !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	for i := 0; i < n; i++ {
		p := sweepPart{shard: ShardDesc{Index: i, Lo: cuts[i], Hi: cuts[i+1], Units: units}}
		switch size, r := cuts[i+1]-cuts[i], rng.Intn(3); {
		case r == 0: // killed (a unit journals about 26 records), and maybe resumed
			p.legs = append(p.legs, leg(size*26))
			if rng.Intn(2) == 0 {
				p.legs = append(p.legs, leg(0))
			}
		case r == 1 && size >= 2:
			p.yield = 1 + rng.Intn(size-1)
			p.thief = ShardDesc{Index: n + i, Lo: cuts[i] + p.yield - rng.Intn(min(p.yield, 2)+1), Hi: cuts[i+1], Units: units}
			fallthrough
		default:
			p.legs = append(p.legs, leg(0))
		}
		d.parts = append(d.parts, p)
	}
	return d
}

// journalContent is the part of ReplayStats that says what a journal holds.
// Segments, frames and bytes are its layout, which depends on how the
// workers split the plan.
func journalContent(j *Journal) [7]int {
	s := j.ReplayStats()
	return [7]int{s.Records, s.Empty, s.Duplicates, s.OutOfPlan, s.Torn, j.ReplayedAnswered(), j.ReplayedFailures()}
}

// planProbes counts the probes of cfg's plan.
func planProbes(cfg *Config) int {
	nq := len(cfg.queryTypes())
	return len(cfg.OpenResolvers)*len(cfg.Targets)*nq + len(cfg.Nameservers)*(len(cfg.Targets)+1)*nq
}

// lastFrame is the offset of the last frame in a segment's bytes.
func lastFrame(seg []byte) int {
	start := 0
	for off := 0; off < len(seg); {
		start = off
		off += frameHeader + int(binary.LittleEndian.Uint32(seg[off:]))
	}
	return start
}

// checkLinks holds dir's segments to the sources' segments in merge order —
// each one the file of its source — and returns how many dir holds and how
// many the sources hold.
func checkLinks(t *testing.T, dir string, srcs []string) (held, sources int) {
	t.Helper()
	var from []string
	for _, src := range srcs {
		names, _, _ := segmentNames(src)
		for _, n := range names {
			from = append(from, filepath.Join(src, n))
		}
	}
	names, _, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names[:min(len(names), len(from))] {
		gi, err1 := os.Stat(filepath.Join(dir, n))
		wi, err2 := os.Stat(from[i])
		if err1 != nil || err2 != nil || !os.SameFile(gi, wi) {
			t.Errorf("%s is not a link to %s (%v, %v)", n, from[i], err1, err2)
		}
	}
	return len(names), len(from)
}

// modelRun carries one draw through its processes and books the cells it
// reaches into census and the records each journal directory holds.
type modelRun struct {
	t       *testing.T
	d       sweepDraw
	census  map[string]bool
	records map[string]int64
}

// reach books cell into the census when hit.
func (m *modelRun) reach(cell string, hit bool) {
	if hit {
		m.census[cell] = true
	}
}

func (m *modelRun) fixture() *chaosFixture {
	fx := newChaosFixture(m.t, m.d.world)
	profiles[m.d.profile](fx)
	fx.cfg.TransportKind = m.d.transport
	return fx
}

// opening is what a leg's OpenJournal must find in its directory.
type opening struct {
	resumed bool // a journal to resume
	torn    bool // a segment cut inside its last frame
	dups    bool // answered records repeated by overlapping shards
}

// sweep opens dir for cfg and runs leg l. It holds the open to want — a
// resume finds every record appended before unless a segment was torn,
// nothing outside the plan, and no answered probe twice unless shards
// overlap — and the run to booking each record it appends once; with no
// faults, a leg that finishes must book no failure and no recovery, and
// query exactly the probes the journal did not answer.
func (m *modelRun) sweep(fx *chaosFixture, cfg *Config, dir string, l sweepLeg, want opening) (*Result, *Journal, bool) {
	t := m.t
	t.Helper()
	cfg.Parallelism = l.par
	j, err := OpenJournal(dir, cfg, JournalOptions{CheckpointEvery: l.ckpt, SyncEvery: l.sync})
	if err != nil {
		t.Fatal(err)
	}
	st := j.ReplayStats()
	if j.Resumed() != want.resumed || st.Torn == 0 && want.torn || int64(st.Records) != m.records[dir] && !want.torn ||
		want.resumed && (st.Records == 0 && !want.torn || st.OutOfPlan != 0 || st.Duplicates != 0 && !want.dups) {
		t.Errorf("%s: resumed %v reading %v, %d records appended; want %+v", dir, j.Resumed(), st, m.records[dir], want)
	}
	m.reach(fmt.Sprintf("resume p%d", l.par), want.resumed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed, hooked := false, map[int64]int{} // the record numbers the hook saw
	var mu sync.Mutex
	if l.kill > 0 {
		j.AppendHook = func(total int64) {
			mu.Lock()
			defer mu.Unlock()
			if hooked[total]++; total == l.kill {
				killed = true
				cancel()
			}
		}
	}
	cfg.Journal = j
	res, err := NewPipeline(cfg).Run(ctx)
	released := j.Appended() // every worker has flushed and parked its segment
	if cerr := j.Close(); cerr != nil || err != nil && !killed {
		t.Fatalf("%s: %v (close: %v)", dir, err, cerr)
	}
	m.records[dir] = int64(st.Records) + j.Appended()
	miscounted := released != j.Appended() || l.kill > 0 && len(hooked) != int(released)
	for total, seen := range hooked {
		miscounted = miscounted || seen != 1 || total < 1 || total > released
	}
	if miscounted {
		t.Errorf("%s: %d records appended by the run's end, %d at Close; the hook saw %v", dir, released, j.Appended(), hooked)
	}
	m.census[fmt.Sprintf("sweep %s %s p%d", profileNames[m.d.profile], m.d.transport, l.par)] = true
	if cov := res.Coverage; !killed && m.d.profile == 0 && (cov.Failed() != 0 || cov.RetriedRecovered != 0) {
		t.Errorf("%s: a fault-free leg booked %d failures and %d recoveries", dir, cov.Failed(), cov.RetriedRecovered)
	}
	if !killed && m.d.profile == 0 && (cfg.Shard == nil || cfg.Shard.Done() == cfg.PlanUnits()) {
		if got, want := fx.fabric.Exchanges(), int64(planProbes(cfg)-j.ReplayedAnswered()); got != want {
			t.Errorf("%s: %d live exchanges, want %d (%d probes, %d replayed): an answered probe was queried again",
				dir, got, want, planProbes(cfg), j.ReplayedAnswered())
		}
	}
	ckpt := int64(max(l.ckpt, 1))
	for cell, hit := range map[string]bool{"kill-resume " + profileNames[m.d.profile] + " " + m.d.transport: true,
		"kill at the first record": l.kill == 1, "kill at a checkpoint": l.kill > 1 && l.kill%ckpt == 0,
		"kill inside a frame": l.kill%ckpt != 0, "kill past half the plan": l.kill > int64(planProbes(cfg)/2),
		"kill with fsync": l.sync > 0} {
		m.reach(cell, killed && hit)
	}
	return res, j, killed
}

// tear cuts the tail of dir's newest non-empty segment inside its last
// frame, as a hard kill leaves it. It reports whether there was one.
func (m *modelRun) tear(dir string, tear int) bool {
	names, _, err := segmentNames(dir)
	for i := len(names) - 1; i >= 0 && err == nil && tear > 0; i-- {
		path := filepath.Join(dir, names[i])
		var data []byte
		if data, err = os.ReadFile(path); len(data) > 0 {
			last := len(data) - lastFrame(data)
			if err = os.Truncate(path, int64(len(data)-1-(tear-1)%(last-1))); err == nil {
				m.census["torn"] = true
				return true
			}
		}
	}
	if err != nil {
		m.t.Fatal(err)
	}
	return false
}

// part runs p's legs in dir. It returns the last leg's result and whether
// that leg left the journal whole (neither killed nor torn) or torn.
func (m *modelRun) part(dir string, p sweepPart) (res *Result, fx *chaosFixture, whole, torn bool) {
	for i, l := range p.legs {
		fx = m.fixture()
		cfg := fx.cfg
		if p.shard.Units > 0 {
			cfg = ShardConfig(cfg, p.shard)
		}
		if sh := cfg.Shard; i == 0 && p.yield > 0 {
			sh.Progress = func(done int) {
				if done == p.yield {
					sh.Yield(p.shard.Lo + p.yield)
				}
			}
		}
		var j *Journal
		var killed bool
		res, j, killed = m.sweep(fx, cfg, dir, l, opening{resumed: i > 0, torn: torn})
		if cfg.Shard != nil && len(res.Suspicious) != 0 {
			m.t.Errorf("%s: a shard classified %d records", dir, len(res.Suspicious))
		}
		if i == 0 && p.yield > 0 {
			m.checkYield(p, l, cfg.Shard, res, j, fx)
		}
		m.reach("resume of a finished journal", !killed && i < len(p.legs)-1)
		m.reach("shard resume", i > 0 && cfg.Shard != nil)
		torn = m.tear(dir, l.tear)
		whole = !killed && !torn
	}
	return res, fx, whole, torn
}

// checkYield holds a yielded shard to its cursor: the cursor never moves back
// up, and at parallelism 1 a shard of nameservers swept exactly the units
// finished before the yield, each in full.
func (m *modelRun) checkYield(p sweepPart, l sweepLeg, sh *Shard, res *Result, j *Journal, fx *chaosFixture) {
	y, resolvers := p.shard.Lo+p.yield, len(fx.cfg.OpenResolvers)
	if sh.Yield(y + 1) {
		m.t.Error("a yield moved the cursor back up")
	}
	m.reach("yield at parallelism 1", l.par == 1)
	m.reach("yield at parallelism > 1", l.par > 1)
	if l.par != 1 || p.shard.Lo < resolvers {
		return
	}
	want := fx.cfg.Nameservers[p.shard.Lo-resolvers : y-resolvers]
	perNS := (len(fx.cfg.Targets) + 1) * len(fx.cfg.queryTypes())
	if sh.Done() != p.yield || !slices.EqualFunc(res.Coverage.PerServer, want, func(sc ServerCoverage, ns NameserverInfo) bool {
		return sc.Addr == ns.Addr
	}) || m.d.profile == 0 && j.Appended() != int64(p.yield*perNS) {
		m.t.Errorf("yield at %d units: %d done, %d records, swept %+v", p.yield, sh.Done(), j.Appended(), res.Coverage.PerServer)
	}
}

// shards runs a shard draw's parts, each yielded tail's thief, the merge and
// the merged directory's resume.
func (m *modelRun) shards(root string) (*Result, *chaosFixture) {
	t := m.t
	var srcs []string
	whole, torn, dups := m.d.profile == 0, false, false // whole: the merge holds every answer
	for i, p := range m.d.parts {
		srcs = append(srcs, filepath.Join(root, fmt.Sprint("shard-", i)))
		_, _, done, partTorn := m.part(srcs[len(srcs)-1], p)
		whole, torn = whole && done, torn || partTorn
		if p.yield > 0 {
			srcs = append(srcs, filepath.Join(root, fmt.Sprint("thief-", i)))
			m.part(srcs[len(srcs)-1], sweepPart{shard: p.thief, legs: []sweepLeg{{par: p.legs[0].par}}})
			dups = true
		}
	}
	m.reach("re-shard", len(m.d.parts) > 1)
	full := m.fixture().cfg
	if m.d.stopMerge {
		m.stoppedMerge(root, full, srcs)
	}
	merged := filepath.Join(root, "merged")
	st, err := MergeShardJournals(merged, full, srcs)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if held, sources := checkLinks(t, merged, srcs); held != sources || held != st.Segments || st.Dirs != len(srcs) {
		t.Errorf("the merge linked %d of %d segments and reports %+v", held, sources, st)
	}
	for _, src := range srcs {
		m.records[merged] += m.records[src]
	}
	fx := m.fixture()
	res, j, _ := m.sweep(fx, fx.cfg, merged, sweepLeg{par: m.d.mergedPar}, opening{resumed: true, torn: torn, dups: dups})
	if whole && j.ReplayedAnswered() != chaosPlanSize {
		t.Errorf("the merged journal replayed %d of %d probes", j.ReplayedAnswered(), chaosPlanSize)
	}
	return res, fx
}

// stoppedMerge stops a merge between segments: its last source ends in a
// "segment" that cannot be linked. The merge must fail having linked every
// segment before it, each the file of its source, and write no manifest, so
// that the directory it leaves is refused.
func (m *modelRun) stoppedMerge(root string, full *Config, srcs []string) {
	t := m.t
	last, broken, stopped := srcs[len(srcs)-1], filepath.Join(root, "broken"), filepath.Join(root, "stopped")
	if err := os.MkdirAll(filepath.Join(broken, "seg-99999.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(last)
	for _, e := range entries {
		if err := os.Link(filepath.Join(last, e.Name()), filepath.Join(broken, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeShardJournals(stopped, full, append(slices.Clone(srcs[:len(srcs)-1]), broken)); err == nil {
		t.Fatal("a merge over a segment it cannot link reported success")
	}
	if _, err := os.Stat(filepath.Join(stopped, manifestName)); !os.IsNotExist(err) {
		t.Errorf("the stopped merge wrote its manifest (stat: %v)", err)
	}
	if held, sources := checkLinks(t, stopped, srcs); held != sources {
		t.Errorf("the stopped merge left %d segments, want the %d before the unlinkable one", held, sources)
	}
	if _, err := OpenJournal(stopped, full, JournalOptions{}); err == nil || !strings.Contains(err.Error(), "no manifest") {
		t.Errorf("the directory a stopped merge left opened: %v", err)
	}
	m.census["stopped merge"] = true
}

// TestJournaledSweepMatchesOracle draws, per seed, a fault profile, a
// transport and one to four parts that together finish the chaos fixture's
// plan — the whole plan or shards, each leg at its own parallelism,
// checkpoint and fsync cadence, maybe killed at a journal record, torn and
// resumed, a shard maybe yielded to an overlapping thief — and holds the
// report the draw ends in to one uninterrupted run at parallelism 1 over udp,
// byte for byte. A failing subtest prints its draw;
// -run 'JournaledSweepMatchesOracle/seed-N$' replays it.
func TestJournaledSweepMatchesOracle(t *testing.T) {
	type oracle struct {
		res     *Result
		content [7]int
	}
	oracles := map[[2]int64]oracle{}
	for _, world := range []int64{11, 23} {
		for p := range profiles {
			m := &modelRun{t: t, d: sweepDraw{world: world, profile: int64(p), transport: "udp"}, census: map[string]bool{}, records: map[string]int64{}}
			fx, dir := m.fixture(), t.TempDir()
			res, _, _ := m.sweep(fx, fx.cfg, dir, sweepLeg{par: 1}, opening{})
			j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			oracles[[2]int64{world, int64(p)}] = oracle{res, journalContent(j)}
			j.Close()
			if cov := res.Coverage; p == 0 && (cov.Failed() != 0 || cov.RetriedRecovered != 0 || cov.BreakerTrips != 0 || len(res.URs) != 6*12*2) {
				t.Fatalf("a fault-free sweep collected %d URs and booked %+v", len(res.URs), cov)
			}
		}
	}

	census, ran := map[string]bool{}, 0
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ran++
			d := drawSweep(rand.New(rand.NewSource(seed)), newChaosFixture(t, 11).cfg.PlanUnits())
			t.Logf("%s faults, draw %+v", profileNames[d.profile], d)
			m, want, root := &modelRun{t, d, census, map[string]int64{}}, oracles[[2]int64{d.world, d.profile}], t.TempDir()
			var res *Result
			var fx *chaosFixture
			if d.parts[0].shard.Units > 0 {
				res, fx = m.shards(root)
			} else if res, fx, _, _ = m.part(root, d.parts[0]); len(d.parts[0].legs) == 1 {
				// One uninterrupted run books what the oracle's does and
				// journals what it holds, however the workers split the plan.
				j, err := OpenJournal(root, fx.cfg, JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got := journalContent(j); got != want.content || res.Queries != want.res.Queries ||
					!reflect.DeepEqual(res.Coverage, want.res.Coverage) {
					t.Errorf("journal %v, coverage %+v after %d queries; the oracle's %v, %+v after %d",
						got, res.Coverage, res.Queries, want.content, want.res.Coverage, want.res.Queries)
				}
				j.Close()
				census["uninterrupted "+profileNames[d.profile]] = true
			}
			if got, want := renderReport(res), renderReport(want.res); got != want {
				t.Errorf("report differs from the oracle's:\n--- got ---\n%s--- oracle ---\n%s", got, want)
			}
			cov := res.Coverage
			checkCoverageConsistent(t, cov)
			checkNoFalseRecords(t, fx, res)
			if cov.Attempted != chaosPlanSize || d.profile == 0 && (cov.Failed() != 0 || cov.BreakerTrips != 0) {
				t.Errorf("attempted %d of %d probes, failed %d, tripped %d breakers", cov.Attempted, chaosPlanSize, cov.Failed(), cov.BreakerTrips)
			}
			census[fmt.Sprintf("world %d %s", d.world, profileNames[d.profile])] = true
		})
	}
	if ran < modelSeeds {
		return // a -run filter picked some seeds: the census is over all of them
	}
	var cells []string
	for p, name := range profileNames {
		for _, kind := range transportSweepKinds {
			for _, par := range []int{1, 4, 16} {
				cells = append(cells, fmt.Sprintf("sweep %s %s p%d", name, kind, par))
			}
			if p < 2 {
				cells = append(cells, "kill-resume "+name+" "+kind)
			}
		}
		cells = append(cells, "world 11 "+name, "world 23 "+name, "uninterrupted "+name)
	}
	cells = append(cells, "resume p1", "resume p2", "resume p4", "resume p16", "kill at the first record",
		"kill at a checkpoint", "kill inside a frame", "kill past half the plan", "kill with fsync", "torn",
		"resume of a finished journal", "shard resume", "re-shard", "yield at parallelism 1",
		"yield at parallelism > 1", "stopped merge")
	if missing := slices.DeleteFunc(cells, func(c string) bool { return census[c] }); len(missing) > 0 {
		t.Errorf("the %d draws never reached %q", modelSeeds, missing)
	}
}
