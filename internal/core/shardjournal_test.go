package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
)

// TestShardConfigSlices pins the unit→config slicing: open resolvers occupy
// units [0, R), nameservers [R, R+N), and a range reaching outside the plan
// (a hostile assign frame) is clamped, never a panic.
func TestShardConfigSlices(t *testing.T) {
	full := &Config{Seed: 11}
	for i := 1; i <= 2; i++ {
		full.OpenResolvers = append(full.OpenResolvers, netip.AddrFrom4([4]byte{10, 0, 1, byte(i)}))
	}
	for i := 1; i <= 10; i++ {
		full.Nameservers = append(full.Nameservers, NameserverInfo{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})})
	}
	if got := full.PlanUnits(); got != 12 {
		t.Fatalf("PlanUnits = %d, want 12", got)
	}
	for _, tc := range []struct {
		lo, hi         int
		resolvers, nss int
	}{
		{1, 5, 1, 3}, // spans the resolver/nameserver boundary
		{7, 12, 0, 5},
		{0, 12, 2, 10},
		{-3, 40, 2, 10},
		{5, 1, 0, 0}, // inverted
	} {
		s := ShardConfig(full, ShardDesc{Lo: tc.lo, Hi: tc.hi, Units: 12})
		if len(s.OpenResolvers) != tc.resolvers || len(s.Nameservers) != tc.nss {
			t.Errorf("[%d,%d): %d resolvers + %d nameservers, want %d + %d",
				tc.lo, tc.hi, len(s.OpenResolvers), len(s.Nameservers), tc.resolvers, tc.nss)
		}
		if s.Shard == nil || s.Shard.Desc.Lo != tc.lo || s.Shard.Desc.Hi != tc.hi {
			t.Errorf("[%d,%d): shard value %+v", tc.lo, tc.hi, s.Shard)
		}
	}
	s := ShardConfig(full, ShardDesc{Lo: 1, Hi: 5, Units: 12})
	if s.OpenResolvers[0] != full.OpenResolvers[1] || s.Nameservers[0].Addr != full.Nameservers[0].Addr {
		t.Errorf("boundary slice starts at the wrong units: %v / %v", s.OpenResolvers, s.Nameservers)
	}
	if full.Shard != nil {
		t.Error("slicing marked the full config as a shard")
	}
}

// TestShardPlanHashDistinct pins that shard identity separates shards of one
// plan and never collides with the plan itself.
func TestShardPlanHashDistinct(t *testing.T) {
	fx := newChaosFixture(t, 11)
	full := fx.cfg.PlanHash()
	a := ShardPlanHash(full, ShardDesc{Index: 0, Lo: 0, Hi: 4, Units: 7})
	b := ShardPlanHash(full, ShardDesc{Index: 1, Lo: 4, Hi: 7, Units: 7})
	c := ShardPlanHash(full, ShardDesc{Index: 1, Lo: 0, Hi: 4, Units: 7}) // same range, other index
	if a == b || a == c || a == full || b == full {
		t.Fatalf("shard hashes collide: full=%x a=%x b=%x c=%x", full, a, b, c)
	}
}

// TestJournalMismatchErrors pins the four-way error taxonomy: each way a
// journal directory can disagree with the opener names the actual conflict.
func TestJournalMismatchErrors(t *testing.T) {
	fx := newChaosFixture(t, 11)
	scfg := ShardConfig(fx.cfg, ShardDesc{Index: 0, Lo: 0, Hi: 4, Units: 7})

	t.Run("different plan", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		other := newChaosFixture(t, 99)
		_, err = OpenJournal(dir, other.cfg, JournalOptions{})
		if err == nil || !strings.Contains(err.Error(), "holds a different sweep plan") ||
			!strings.Contains(err.Error(), "refuse to mix plans") {
			t.Fatalf("cross-plan open error = %v", err)
		}
	})

	t.Run("shard dir opened as whole plan", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, scfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, err = OpenJournal(dir, fx.cfg, JournalOptions{})
		if err == nil || !strings.Contains(err.Error(), "holds shard 0") ||
			!strings.Contains(err.Error(), "merge shard journals") {
			t.Fatalf("shard-as-plan open error = %v", err)
		}
	})

	t.Run("whole-plan dir opened as shard", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, err = OpenJournal(dir, scfg, JournalOptions{})
		if err == nil || !strings.Contains(err.Error(), "holds the whole plan") {
			t.Fatalf("plan-as-shard open error = %v", err)
		}
	})

	t.Run("same plan different shard", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, scfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		other := ShardConfig(fx.cfg, ShardDesc{Index: 1, Lo: 0, Hi: 4, Units: 7})
		_, err = OpenJournal(dir, other, JournalOptions{})
		if err == nil || !strings.Contains(err.Error(), "resumes only as the same shard") {
			t.Fatalf("cross-shard open error = %v", err)
		}
	})

	t.Run("same shard resumes", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir, scfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, err = OpenJournal(dir, scfg, JournalOptions{})
		if err != nil {
			t.Fatalf("same-shard reopen: %v", err)
		}
		if !j.Resumed() {
			t.Error("same-shard reopen did not resume")
		}
		j.Close()
	})
}

// TestMergeShardJournalsValidation pins the merge preconditions: full
// coverage of the unit range, one plan only, and a fresh destination.
func TestMergeShardJournalsValidation(t *testing.T) {
	fx := newChaosFixture(t, 11)
	mkShard := func(t *testing.T, lo, hi, idx int) string {
		dir := filepath.Join(t.TempDir(), "shard")
		j, err := OpenJournal(dir, ShardConfig(fx.cfg, ShardDesc{Index: idx, Lo: lo, Hi: hi, Units: 7}), JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		return dir
	}

	t.Run("gap detected", func(t *testing.T) {
		dirs := []string{mkShard(t, 0, 3, 0), mkShard(t, 5, 7, 2)} // [3,5) missing
		_, err := MergeShardJournals(filepath.Join(t.TempDir(), "m"), fx.cfg, dirs)
		if err == nil || !strings.Contains(err.Error(), "units [3,5) uncovered") {
			t.Fatalf("gap merge error = %v", err)
		}
	})

	t.Run("tail gap detected", func(t *testing.T) {
		dirs := []string{mkShard(t, 0, 5, 0)}
		_, err := MergeShardJournals(filepath.Join(t.TempDir(), "m"), fx.cfg, dirs)
		if err == nil || !strings.Contains(err.Error(), "units [5,7) uncovered") {
			t.Fatalf("tail-gap merge error = %v", err)
		}
	})

	t.Run("cross-plan refused", func(t *testing.T) {
		other := newChaosFixture(t, 99)
		otherDir := filepath.Join(t.TempDir(), "other")
		j, err := OpenJournal(otherDir, other.cfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		dirs := []string{mkShard(t, 0, 5, 0), otherDir}
		_, err = MergeShardJournals(filepath.Join(t.TempDir(), "m"), fx.cfg, dirs)
		if err == nil || !strings.Contains(err.Error(), "refuse to mix plans") {
			t.Fatalf("cross-plan merge error = %v", err)
		}
	})

	t.Run("occupied destination refused", func(t *testing.T) {
		dst := filepath.Join(t.TempDir(), "m")
		j, err := OpenJournal(dst, fx.cfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, err = MergeShardJournals(dst, fx.cfg, []string{mkShard(t, 0, 7, 0)})
		if err == nil || !strings.Contains(err.Error(), "already holds a journal") {
			t.Fatalf("occupied-dst merge error = %v", err)
		}
	})

	t.Run("overlap allowed", func(t *testing.T) {
		// Work stealing produces overlapping shard ranges on purpose.
		dirs := []string{mkShard(t, 0, 5, 0), mkShard(t, 3, 7, 1)}
		dst := filepath.Join(t.TempDir(), "m")
		st, err := MergeShardJournals(dst, fx.cfg, dirs)
		if err != nil {
			t.Fatalf("overlapping merge: %v", err)
		}
		if st.Dirs != 2 {
			t.Errorf("merged %d dirs, want 2", st.Dirs)
		}
		// The merged directory is a plain whole-plan journal.
		j, err := OpenJournal(dst, fx.cfg, JournalOptions{})
		if err != nil {
			t.Fatalf("open merged: %v", err)
		}
		j.Close()
	})

	t.Run("manifestless source refused", func(t *testing.T) {
		empty := t.TempDir()
		_, err := MergeShardJournals(filepath.Join(t.TempDir(), "m"), fx.cfg, []string{empty})
		if err == nil || !os.IsNotExist(errUnwrapAll(err)) {
			t.Fatalf("manifestless merge error = %v", err)
		}
	})
}

// TestShardYieldMidRun pins the shard value's cursor. A shard over the
// nameserver units [1,7) is yielded down to 4 as its third unit completes:
// its journal must hold every probe of units 1-3 and nothing of 4-6, and —
// beside the resolver's shard and the thief's shard of the stolen tail — it
// must still merge into a journal that replays the whole plan without one
// live exchange, to the single-process report.
func TestShardYieldMidRun(t *testing.T) {
	const perNS = (12 + 1) * 2 // every target plus the canary, A and TXT
	sweep := func(sd ShardDesc, arm func(*Shard)) (string, *Result, *Journal) {
		t.Helper()
		fx := newChaosFixture(t, 11)
		// One worker, so the unit that finishes third is the third unit.
		fx.cfg.Parallelism = 1
		scfg := ShardConfig(fx.cfg, sd)
		if arm != nil {
			arm(scfg.Shard)
		}
		dir := filepath.Join(t.TempDir(), "shard")
		j, err := OpenJournal(dir, scfg, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		scfg.Journal = j
		res, err := NewPipeline(scfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, res, j
	}

	var yielded *Shard
	victimDir, res, j := sweep(ShardDesc{Index: 1, Lo: 1, Hi: 7, Units: 7}, func(sh *Shard) {
		yielded = sh
		sh.Progress = func(done int) {
			if done == 3 && !sh.Yield(4) {
				t.Error("Yield(4) did not move the cursor")
			}
		}
	})
	if yielded.Yield(5) {
		t.Error("a yield moved the cursor back up")
	}
	if got := yielded.Done(); got != 3 {
		t.Errorf("shard completed %d units, want 3", got)
	}
	if got := j.Appended(); got != 3*perNS {
		t.Errorf("shard journal holds %d records, want %d (units 1-3 in full)", got, 3*perNS)
	}
	servers := newChaosFixture(t, 11).nsAddrs
	if cov := res.Coverage; len(cov.PerServer) != 3 {
		t.Errorf("swept %d servers, want 3: %+v", len(cov.PerServer), cov.PerServer)
	} else {
		for i, sc := range cov.PerServer {
			if sc.Addr != servers[i] || sc.Answered != perNS {
				t.Errorf("unit %d: swept %s with %d answers, want %s with %d", i+1, sc.Addr, sc.Answered, servers[i], perNS)
			}
		}
	}
	if len(res.Suspicious) != 0 {
		t.Errorf("a shard run classified %d records", len(res.Suspicious))
	}

	resolverDir, _, _ := sweep(ShardDesc{Index: 0, Lo: 0, Hi: 1, Units: 7}, nil)
	thiefDir, _, _ := sweep(ShardDesc{Index: 2, Lo: 4, Hi: 7, Units: 7}, nil)
	merged := filepath.Join(t.TempDir(), "merged")
	full := newChaosFixture(t, 11)
	if _, err := MergeShardJournals(merged, full.cfg, []string{resolverDir, victimDir, thiefDir}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	mj, err := OpenJournal(merged, full.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full.cfg.Journal = mj
	got, err := NewPipeline(full.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mj.Close()
	if mj.ReplayedAnswered() != chaosPlanSize || full.fabric.Exchanges() != 0 {
		t.Errorf("merged run replayed %d of %d probes and issued %d live exchanges",
			mj.ReplayedAnswered(), chaosPlanSize, full.fabric.Exchanges())
	}
	want, err := NewPipeline(newChaosFixture(t, 11).cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if renderRecords(got) != renderRecords(want) {
		t.Error("merged report differs from the single-process run")
	}
}

// downgradeToV1 rewrites a journal directory of full's plan as the writer
// before position keys would have left it: frame for frame, every record
// keyed by (kind, address, name, qtype), every empty answer given the bytes
// of an NXDOMAIN reply, and the manifest at version 1.
func downgradeToV1(t *testing.T, dir string, full *Config) {
	t.Helper()
	qtypes, nr, nt := full.queryTypes(), len(full.OpenResolvers), len(full.Targets)
	segs, _, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path + ".v1")
		if err != nil {
			t.Fatal(err)
		}
		w := &segmentWriter{j: &Journal{}, f: f, every: 1 << 30, buf: make([]byte, frameHeader)}
		for off := 0; off < len(data); {
			end := off + frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
			for p := off + frameHeader; p < end; {
				rec := data[p]
				p++
				if rec == recCheckpoint {
					if err := w.checkpoint(); err != nil {
						t.Fatal(err)
					}
					p += 8
					continue
				}
				unit, n := binary.Uvarint(data[p:])
				p += n
				slot, n := binary.Uvarint(data[p:])
				p += n
				kind, server := sweepCorrect, netip.Addr{}
				if int(unit) < nr {
					server = full.OpenResolvers[unit]
				} else {
					kind, server = sweepURs, full.Nameservers[int(unit)-nr].Addr
				}
				target, qt := int(slot)/len(qtypes), qtypes[int(slot)%len(qtypes)]
				qname := full.CanaryName()
				if target < nt {
					qname = full.Targets[target]
				} else {
					kind = sweepProtective
				}
				switch rec {
				case recFailure:
					err = writeV1(w, recFailureV1, kind, server, qname, qt, nil, dnsio.FailClass(data[p]))
					p++
				case recAnswered:
					n := int(binary.LittleEndian.Uint32(data[p:]))
					err = writeV1(w, recAnsweredV1, kind, server, qname, qt, data[p+4:p+4+n], 0)
					p += 4 + n
				case recEmpty:
					r := dns.NewQuery(1, qname, qt).Reply()
					r.Header.RCode = dns.RCodeNXDomain
					wire, perr := r.Pack()
					if perr != nil {
						t.Fatal(perr)
					}
					err = writeV1(w, recAnsweredV1, kind, server, qname, qt, wire, 0)
				default:
					t.Fatalf("%s: record type %d", name, rec)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			off = end
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path+".v1", path); err != nil {
			t.Fatal(err)
		}
	}
	mpath := filepath.Join(dir, manifestName)
	m, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, bytes.Replace(m, []byte(`"version": 2`), []byte(`"version": 1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeV1AndV2ShardJournals merges a shard journal in the version 1
// format with one in version 2: the merged directory replays the whole plan
// without a live exchange, to the single-process report. The version 1 shard
// also still resumes as itself.
func TestMergeV1AndV2ShardJournals(t *testing.T) {
	sweep := func(sd ShardDesc) (string, *Config) {
		fx := newChaosFixture(t, 11)
		scfg := ShardConfig(fx.cfg, sd)
		dir := filepath.Join(t.TempDir(), "shard")
		j, err := OpenJournal(dir, scfg, JournalOptions{CheckpointEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		scfg.Journal = j
		if _, err := NewPipeline(scfg).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, scfg
	}
	v1Dir, v1Cfg := sweep(ShardDesc{Index: 0, Lo: 0, Hi: 3, Units: 7})
	downgradeToV1(t, v1Dir, newChaosFixture(t, 11).cfg)
	v2Dir, _ := sweep(ShardDesc{Index: 1, Lo: 3, Hi: 7, Units: 7})

	full := newChaosFixture(t, 11)
	merged := filepath.Join(t.TempDir(), "merged")
	if _, err := MergeShardJournals(merged, full.cfg, []string{v1Dir, v2Dir}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if v := manifestVersion(t, v1Dir); v != 1 {
		t.Errorf("the merge rewrote its version 1 source to version %d", v)
	}
	mj, err := OpenJournal(merged, full.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full.cfg.Journal = mj
	got, err := NewPipeline(full.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mj.Close()
	if st := mj.ReplayStats(); mj.ReplayedAnswered() != chaosPlanSize || st.Empty == 0 || st.OutOfPlan != 0 || full.fabric.Exchanges() != 0 {
		t.Errorf("merged run replayed %d of %d probes (%+v) and issued %d live exchanges",
			mj.ReplayedAnswered(), chaosPlanSize, st, full.fabric.Exchanges())
	}
	want, err := NewPipeline(newChaosFixture(t, 11).cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if renderRecords(got) != renderRecords(want) {
		t.Error("merged report differs from the single-process run")
	}

	j, err := OpenJournal(v1Dir, v1Cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.ReplayStats(); j.ReplayedAnswered() != 12*2+2*13*2 || st.Empty != 0 || st.OutOfPlan != 0 {
		t.Errorf("version 1 shard resumes to %d answered, %+v", j.ReplayedAnswered(), st)
	}
}

// errUnwrapAll walks to the innermost error.
func errUnwrapAll(err error) error {
	type unwrapper interface{ Unwrap() error }
	for {
		u, ok := err.(unwrapper)
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}
