// Transports: a sweep's report is a pure function of (world seed, fault
// surface), never of the wire transport carrying it — which
// TestJournaledSweepMatchesOracle draws — and the modeled crypto costs land
// only on the virtual clock. DoT and DoH route through the same fabric
// endpoints as UDP, so chaos draws are identical. A journal keeps one
// transport for its life.
package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transportSweepKinds are the sweep dimensions (plain TCP is a fallback
// mechanism, not a sweep transport; see transport.SweepKinds).
var transportSweepKinds = []string{"udp", "dot", "doh"}

// TestJournalRefusesCrossTransport pins the taxonomy: a journal checkpointed
// on one transport refuses to resume under another, naming both.
func TestJournalRefusesCrossTransport(t *testing.T) {
	dir := t.TempDir()
	fx := newChaosFixture(t, 11)
	fx.cfg.TransportKind = "doh"
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fx2 := newChaosFixture(t, 11)
	fx2.cfg.TransportKind = "udp"
	_, err = OpenJournal(dir, fx2.cfg, JournalOptions{})
	if err == nil {
		t.Fatal("udp resume of a doh journal succeeded")
	}
	for _, frag := range []string{"refuse to mix transports", `"doh"`, `"udp"`, "-transport doh"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("refusal error missing %q: %v", frag, err)
		}
	}

	// Same transport reopens fine.
	fx3 := newChaosFixture(t, 11)
	fx3.cfg.TransportKind = "doh"
	j3, err := OpenJournal(dir, fx3.cfg, JournalOptions{})
	if err != nil {
		t.Fatalf("same-transport reopen refused: %v", err)
	}
	j3.Close()
}

// TestJournalPreTransportManifestResumesAsUDP pins backward compatibility:
// a manifest written before the transport dimension existed (no transport
// field — exactly what an udp journal still writes) resumes under udp and
// refuses under an encrypted transport.
func TestJournalPreTransportManifestResumesAsUDP(t *testing.T) {
	dir := t.TempDir()
	fx := newChaosFixture(t, 11)
	j, err := OpenJournal(dir, fx.cfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The udp manifest must not even mention the field, so journals from
	// before the transport dimension stay byte-compatible.
	man, err := readManifestBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(man), "transport") {
		t.Errorf("udp manifest mentions transport: %s", man)
	}

	fx2 := newChaosFixture(t, 11)
	fx2.cfg.TransportKind = "udp"
	j2, err := OpenJournal(dir, fx2.cfg, JournalOptions{})
	if err != nil {
		t.Fatalf("udp resume of a pre-transport journal refused: %v", err)
	}
	j2.Close()

	fx3 := newChaosFixture(t, 11)
	fx3.cfg.TransportKind = "dot"
	if _, err := OpenJournal(dir, fx3.cfg, JournalOptions{}); err == nil {
		t.Fatal("dot resume of an udp journal succeeded")
	} else if !strings.Contains(err.Error(), "refuse to mix transports") {
		t.Errorf("unexpected refusal text: %v", err)
	}
}

// TestMergeRefusesCrossTransport pins the fleet side of the taxonomy: shard
// journals swept over one transport refuse to merge into a run targeting
// another.
func TestMergeRefusesCrossTransport(t *testing.T) {
	shardDir := t.TempDir()
	shardFx := newChaosFixture(t, 11)
	shardFx.cfg.TransportKind = "dot"
	units := shardFx.cfg.PlanUnits()
	scfg := ShardConfig(shardFx.cfg, ShardDesc{Index: 0, Lo: 0, Hi: units, Units: units})
	sj, err := OpenJournal(shardDir, scfg, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scfg.Journal = sj
	if _, err := NewPipeline(scfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}

	mergeFx := newChaosFixture(t, 11)
	mergeFx.cfg.TransportKind = "udp"
	_, err = MergeShardJournals(t.TempDir(), mergeFx.cfg, []string{shardDir})
	if err == nil {
		t.Fatal("merge across transports succeeded")
	}
	for _, frag := range []string{"refuse to mix transports", `"dot"`, `"udp"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("merge refusal missing %q: %v", frag, err)
		}
	}

	// The matching transport merges clean.
	okFx := newChaosFixture(t, 11)
	okFx.cfg.TransportKind = "dot"
	if _, err := MergeShardJournals(t.TempDir(), okFx.cfg, []string{shardDir}); err != nil {
		t.Fatalf("same-transport merge failed: %v", err)
	}
}

// TestTransportVirtualCostOnly asserts the modeled crypto costs land on the
// virtual clock and nowhere else: the encrypted sweeps advance virtual RTT
// beyond the plain sweep's — by no more than the cost model allows — issue
// the same number of fabric exchanges, and (per the tests above) change no
// verdict.
func TestTransportVirtualCostOnly(t *testing.T) {
	type book struct {
		exchanges int64
		virtual   int64
	}
	books := map[string]book{}
	var servers, base int64
	for _, kind := range transportSweepKinds {
		fx := newChaosFixture(t, 11)
		fx.cfg.TransportKind = kind
		if _, err := NewPipeline(fx.cfg).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		books[kind] = book{fx.fabric.Exchanges(), int64(fx.fabric.VirtualRTT())}
		servers, base = int64(fx.cfg.PlanUnits()), int64(fx.fabric.BaseRTT())
	}
	for _, kind := range []string{"dot", "doh"} {
		if books[kind].exchanges != books["udp"].exchanges {
			t.Errorf("%s issued %d exchanges, udp %d — routing must be identical",
				kind, books[kind].exchanges, books["udp"].exchanges)
		}
		if books[kind].virtual <= books["udp"].virtual {
			t.Errorf("%s booked no crypto cost: virtual %d vs udp %d",
				kind, books[kind].virtual, books["udp"].virtual)
		}
	}
	// DoH's per-message overhead divisor is twice DoT's, so its sweep must
	// cost strictly more virtual time.
	if books["doh"].virtual <= books["dot"].virtual {
		t.Errorf("doh virtual cost %d not above dot's %d", books["doh"].virtual, books["dot"].virtual)
	}
	// The ceiling DESIGN §14's model gives this plan: one 2-RTT handshake per
	// server plus base/8 per message, over an exchange that costs plain UDP
	// at least one base RTT — so DoH's share over UDP is at most
	// 1/8 + 2/(exchanges per server), about 20% at this fixture's ~26. A
	// handshake booked per message instead of per server reads +200%.
	udp := books["udp"]
	ceiling := 2*servers*base + udp.exchanges*(base/8)
	if extra := books["doh"].virtual - udp.virtual; extra > ceiling {
		t.Errorf("doh booked %d ns over udp's %d, model ceiling %d (%d servers, %d exchanges)",
			extra, udp.virtual, ceiling, servers, udp.exchanges)
	}
	if 2*ceiling > udp.virtual {
		t.Errorf("fixture's model ceiling %d is over half of udp's %d: too few probes per server to amortize a handshake",
			ceiling, udp.virtual)
	}
}

// TestUnknownTransportKindIsAnError pins that a typo in Config.TransportKind
// reaches a library caller as an error from the call that would have used the
// transport — before any probe, and never as a panic.
func TestUnknownTransportKindIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(cfg *Config) error
	}{
		{"Pipeline.Run", func(cfg *Config) error {
			res, err := NewPipeline(cfg).Run(context.Background())
			if res == nil {
				t.Error("no partial result beside the error")
			}
			return err
		}},
		{"Pipeline.FalseNegativeCheck", func(cfg *Config) error {
			_, _, err := NewPipeline(cfg).FalseNegativeCheck(context.Background(), &Result{})
			return err
		}},
		{"OpenJournal", func(cfg *Config) error {
			dir := t.TempDir()
			j, err := OpenJournal(dir, cfg, JournalOptions{})
			if err == nil {
				j.Close()
			}
			if _, serr := readManifestBytes(dir); serr == nil {
				t.Error("a manifest was written for an unknown transport")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newChaosFixture(t, 11)
			fx.cfg.TransportKind = "quic"
			err := tc.call(fx.cfg)
			if err == nil || !strings.Contains(err.Error(), `unknown kind "quic"`) {
				t.Errorf("error = %v, want the unknown-kind refusal", err)
			}
			if n := fx.fabric.Exchanges(); n != 0 {
				t.Errorf("%d exchanges reached the fabric", n)
			}
		})
	}
}

// readManifestBytes loads dir's manifest for content assertions.
func readManifestBytes(dir string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, "manifest.json"))
}
