package core

import (
	"context"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// coverage of the unit range, one plan only, a known transport, and a fresh
// destination. That overlapping shards merge is TestJournaledSweepMatchesOracle's.
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

	t.Run("unknown transport refused", func(t *testing.T) {
		bogus := *fx.cfg
		bogus.TransportKind = "bogus"
		dst := filepath.Join(t.TempDir(), "m")
		_, err := MergeShardJournals(dst, &bogus, []string{mkShard(t, 0, 7, 0)})
		if err == nil || !strings.Contains(err.Error(), `unknown kind "bogus"`) {
			t.Fatalf("unknown-transport merge error = %v", err)
		}
		if _, err := os.Stat(filepath.Join(dst, manifestName)); !os.IsNotExist(err) {
			t.Errorf("the refused merge wrote a manifest (stat: %v)", err)
		}
	})

	t.Run("manifestless source refused", func(t *testing.T) {
		empty := t.TempDir()
		_, err := MergeShardJournals(filepath.Join(t.TempDir(), "m"), fx.cfg, []string{empty})
		if err == nil || !os.IsNotExist(errUnwrapAll(err)) {
			t.Fatalf("manifestless merge error = %v", err)
		}
	})
}

// sweepShard runs one shard of the chaos fixture's plan into a fresh shard
// journal and returns its directory and the shard's config.
func sweepShard(t *testing.T, sd ShardDesc) (string, *Config) {
	t.Helper()
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

// TestMergeRefusesV1ShardJournal merges a version 2 shard journal with one
// whose manifest says version 1. The merge fails on the check a resume makes
// — its error is the resume's, under the merge's prefix — before anything is
// linked: the destination holds no manifest and no segment, and the version
// 1 source is left byte for byte as it was.
func TestMergeRefusesV1ShardJournal(t *testing.T) {
	v1Dir, v1Cfg := sweepShard(t, ShardDesc{Index: 0, Lo: 0, Hi: 3, Units: 7})
	setManifestVersion(t, v1Dir, 1)
	before := dirBytes(t, v1Dir)
	v2Dir, _ := sweepShard(t, ShardDesc{Index: 1, Lo: 3, Hi: 7, Units: 7})

	full := newChaosFixture(t, 11)
	merged := filepath.Join(t.TempDir(), "merged")
	// The version 2 source comes first: it passes the check, and nothing of
	// it may be linked before the version 1 source fails.
	_, mergeErr := MergeShardJournals(merged, full.cfg, []string{v2Dir, v1Dir})
	if mergeErr == nil {
		t.Fatal("a merge with a version 1 source succeeded")
	}
	_, openErr := OpenJournal(v1Dir, v1Cfg, JournalOptions{})
	if openErr == nil || !strings.Contains(openErr.Error(), "manifest version 1") || !strings.Contains(openErr.Error(), version1Reader) {
		t.Fatalf("resume of the version 1 shard: %v", openErr)
	}
	if m, o := strings.TrimPrefix(mergeErr.Error(), "journal: merge: "), strings.TrimPrefix(openErr.Error(), "journal: "); m != o {
		t.Errorf("merge and resume refuse differently:\nmerge:  %s\nresume: %s", m, o)
	}
	if _, err := os.Stat(filepath.Join(merged, manifestName)); !os.IsNotExist(err) {
		t.Errorf("the refused merge wrote a manifest (stat: %v)", err)
	}
	if segs, _, err := segmentNames(merged); err != nil || len(segs) != 0 {
		t.Errorf("the refused merge linked %v (err %v)", segs, err)
	}
	if after := dirBytes(t, v1Dir); !maps.Equal(after, before) {
		t.Error("the refused merge and open changed the version 1 source")
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
