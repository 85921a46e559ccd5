// Determinism pins for the overlapped pipeline: the streamed, sharded
// dataflow must produce byte-identical reports at any parallelism /
// determine-worker setting — chaos faults on or off, fresh or resumed from a
// journal — and the parallel determine/analyze entry points must match their
// serial counterparts record for record.
package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// renderReport fingerprints everything a rendered report consumes: the full
// UR set with classification outcomes in canonical order, the suspicious
// subset, the Table 1 aggregation, and the analyzer's IDS evidence set.
func renderReport(res *Result) string {
	var sb strings.Builder
	sb.WriteString(renderRecords(res))
	for _, u := range res.URs {
		fmt.Fprintf(&sb, "cls|%v|%v|%v|%v|%v\n",
			u.Category, u.Reason, u.TXTClass, u.MaliciousByIntel, u.MaliciousByIDS)
	}
	for _, row := range res.Table1() {
		fmt.Fprintf(&sb, "t1|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			row.Label, row.Domains, row.MaliciousDomains,
			row.Nameservers, row.MaliciousNameservers,
			row.Providers, row.MaliciousProviders,
			row.URs, row.MaliciousURs, row.IPs, row.MaliciousIPs)
	}
	for _, ip := range res.Analyzer.IDSFlaggedIPs() {
		fmt.Fprintf(&sb, "ids|%s\n", ip)
	}
	return sb.String()
}

// TestPipelineDeterministicAcrossWorkers is the parallel-vs-serial pin: the
// same world run fully serial (one sweep worker, one determine worker), at
// GOMAXPROCS, and at deliberately mismatched worker counts must render the
// same report bytes — with and without the deterministic chaos profile.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	grid := []struct{ par, det int }{
		{1, 1},
		{1, 8},
		{4, 1},
		{runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0)},
		{16, 32},
	}
	for _, chaos := range []bool{false, true} {
		name := "clean"
		if chaos {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			var want string
			for i, g := range grid {
				fx := newChaosFixture(t, 23)
				if chaos {
					applyDeterministicFaults(fx)
				}
				fx.cfg.Parallelism = g.par
				fx.cfg.DetermineWorkers = g.det
				res, err := NewPipeline(fx.cfg).Run(context.Background())
				if err != nil {
					t.Fatalf("parallelism %d / determine %d: %v", g.par, g.det, err)
				}
				got := renderReport(res)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("parallelism %d / determine %d report differs from serial:\n--- got ---\n%s--- want ---\n%s",
						g.par, g.det, got, want)
				}
			}
		})
	}
}

// TestPipelineResumedStreamDeterministic extends the pin across a journal
// cut: a run interrupted mid-sweep and resumed at different sweep AND
// determine worker counts must still render the uninterrupted run's bytes —
// the replay path feeds the same determine stream the live sweep does.
func TestPipelineResumedStreamDeterministic(t *testing.T) {
	fx := newChaosFixture(t, 11)
	applyDeterministicFaults(fx)
	baseline, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(baseline)

	dir := t.TempDir()
	_, _, _, err = runJournaled(t, dir, applyDeterministicFaults, context.Background(),
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
	fx2.cfg.Parallelism = 2
	fx2.cfg.DetermineWorkers = 7
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
	if got := renderReport(res); got != want {
		t.Errorf("resumed run at different worker counts diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPipelineStageTimings sanity-checks the observability surface: every
// stage span is populated, and the overlap metric stays in range.
func TestPipelineStageTimings(t *testing.T) {
	fx := newChaosFixture(t, 7)
	res, err := NewPipeline(fx.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if st == nil {
		t.Fatal("no stage timings on result")
	}
	if st.Wall <= 0 || st.Correct <= 0 || st.Nameservers <= 0 {
		t.Errorf("unpopulated stage spans: %+v", st)
	}
	if st.Determine < 0 || st.Analyze < 0 {
		t.Errorf("negative stage spans: %+v", st)
	}
	if p := st.OverlapPercent(); p < 0 || p >= 100 {
		t.Errorf("overlap %% out of range: %v", p)
	}
	var none *StageTimings
	if none.OverlapPercent() != 0 {
		t.Error("nil timings must report zero overlap")
	}
}

// TestAnalyzeParallelMatchesSerial pins the fanned-out §4.3 labeling against
// Analyze over a corpus large enough to actually chunk.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	cfg := analyzerConfig()
	ips := []netip.Addr{intelIP, idsIP, bothIP, cleanIP, lowSevIP}
	build := func() []*UR {
		var urs []*UR
		for i := 0; i < 600; i++ {
			u := susA(ips[i%len(ips)])
			u.Domain = "site.com"
			urs = append(urs, u)
		}
		return urs
	}
	serial := build()
	NewAnalyzer(cfg).Analyze(serial)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 1, 32} {
		urs := build()
		NewAnalyzer(cfg).AnalyzeParallel(urs, workers)
		for i := range urs {
			if urs[i].Category != serial[i].Category ||
				urs[i].MaliciousByIntel != serial[i].MaliciousByIntel ||
				urs[i].MaliciousByIDS != serial[i].MaliciousByIDS {
				t.Fatalf("workers %d: record %d = %+v, want %+v", workers, i, urs[i], serial[i])
			}
		}
	}
}

// TestIDSFlaggedIPsCanonical pins the satellite fix: the evidence set comes
// back address-sorted and identical on every call, not in map-lottery order.
func TestIDSFlaggedIPsCanonical(t *testing.T) {
	a := NewAnalyzer(analyzerConfig())
	ids := a.IDSFlaggedIPs()
	if len(ids) == 0 {
		t.Fatal("fixture produced no IDS evidence")
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 }) {
		t.Errorf("IDSFlaggedIPs not sorted: %v", ids)
	}
	for i := 0; i < 5; i++ {
		if again := a.IDSFlaggedIPs(); !reflect.DeepEqual(ids, again) {
			t.Fatalf("call %d returned different slice: %v vs %v", i, again, ids)
		}
	}
}
