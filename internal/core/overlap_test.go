// The overlapped pipeline's report fingerprint, its stage timings, and the
// parallel analyze entry point against its serial counterpart. That the
// report is the same at any parallelism, fresh or resumed, is
// TestJournaledSweepMatchesOracle's.
package core

import (
	"context"
	"fmt"
	"net/netip"
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
			u.Category, u.Reason, u.Enrichment().TXTClass, u.MaliciousByIntel, u.MaliciousByIDS)
	}
	for _, row := range res.Table1() {
		fmt.Fprintf(&sb, "t1|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			row.Label, row.Domains, row.MaliciousDomains,
			row.Nameservers, row.MaliciousNameservers,
			row.Providers, row.MaliciousProviders,
			row.URs, row.MaliciousURs, row.IPs, row.MaliciousIPs)
	}
	ids := make([]netip.Addr, 0, len(res.Analyzer.idsIPs))
	for ip := range res.Analyzer.idsIPs {
		ids = append(ids, ip)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	for _, ip := range ids {
		fmt.Fprintf(&sb, "ids|%s\n", ip)
	}
	return sb.String()
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
}

// TestAnalyzeParallelMatchesSerial pins the fanned-out §4.3 labeling against
// the one-worker pass over a corpus large enough to actually chunk.
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
	NewAnalyzer(cfg).AnalyzeParallel(serial, 1)
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
