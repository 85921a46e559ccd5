package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/hosting"
)

// scienceReport renders what the paper reports from one run: Table 1, the
// Table 2 provider audit, and the full record set as CSV.
func scienceReport(t *testing.T, res *Result, seed int64) string {
	t.Helper()
	rows, err := AuditProviders(hosting.AppendixCPresets(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, res, false); err != nil {
		t.Fatal(err)
	}
	return RenderTable1(res) + RenderTable2(rows) + csv.String()
}

// The science report at small scale, seed 42, by value: the SHA-256 and the
// length of scienceReport's rendering. Both were generated at the commit
// before the open resolvers began sharing a zone-cut cache and answer
// storage, and are the same at Parallelism 1, 2 and 8. A change that moves
// them has moved a number the paper reports.
const (
	scienceDigest = "48cdd7a2c5b4640a1ee037dc8c16b763bf06fe5885ad19668c5e5f93da3dbdc6"
	scienceBytes  = 10174362
)

// checkScienceDigest holds one rendering to the committed golden value.
func checkScienceDigest(t *testing.T, what, report string) {
	t.Helper()
	sum := sha256.Sum256([]byte(report))
	if got := hex.EncodeToString(sum[:]); got != scienceDigest || len(report) != scienceBytes {
		t.Errorf("%s: science report is %d bytes, sha256 %s; golden is %d bytes, %s",
			what, len(report), got, scienceBytes, scienceDigest)
	}
}

// TestScienceUnmovedByJournalAndResume pins the paper-facing numbers at the
// benchmark's scale and seed, so a change to the sweep, the journal or the
// resume path cannot move one silently: a plain sweep, a journaled sweep and
// a resume of the finished journal must render the same bytes, and the
// counts are the constants bench/ reports as core.queries, core.urs and
// core.suspicious. The rendering is held to the golden digest, and the
// paper's zero-false-negative check (§4.2) runs on the same result.
func TestScienceUnmovedByJournalAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale world: three sweeps, several seconds")
	}
	const seed = 42
	w, err := GenerateWorld(SmallScale(), seed)
	if err != nil {
		t.Fatal(err)
	}
	plainPipe := NewPipeline(w)
	plain, err := plainPipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Queries != 568710 || len(plain.URs) != 62584 || len(plain.Suspicious) != 6638 {
		t.Errorf("small scale, seed %d: %d queries, %d URs, %d suspicious; pinned 568710, 62584, 6638",
			seed, plain.Queries, len(plain.URs), len(plain.Suspicious))
	}
	want := scienceReport(t, plain, seed)
	checkScienceDigest(t, "plain sweep", want)

	dir := t.TempDir()
	for _, step := range []string{"journaled sweep", "resume"} {
		pipe, j, err := NewJournaledPipeline(w, dir, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if step == "resume" {
			if j.ReplayedAnswered() != int(plain.Queries) || res.Queries != 0 {
				t.Errorf("resume replayed %d answers and issued %d queries; the journal holds all %d",
					j.ReplayedAnswered(), res.Queries, plain.Queries)
			}
		} else if res.Queries != plain.Queries {
			t.Errorf("journaled sweep issued %d queries, plain %d", res.Queries, plain.Queries)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := scienceReport(t, res, seed); got != want {
			t.Errorf("%s renders a different Table 1 / Table 2 / CSV than the plain sweep (%d vs %d bytes)", step, len(got), len(want))
		}
	}

	total, falseNeg, err := plainPipe.FalseNegativeCheck(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || falseNeg != 0 {
		t.Errorf("false-negative check: %d of %d delegated records kept as suspicious; want 0 of more than 0", falseNeg, total)
	}
}

// TestScienceDigestAcrossParallelism renders the same golden bytes from a
// fresh world at each worker count: the open resolvers' shared tables are
// state the correct-record workers write concurrently, and no interleaving
// of those writes may reach a report.
func TestScienceDigestAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale world: three generations and sweeps")
	}
	for _, par := range []int{1, 2, 8} {
		w, err := GenerateWorld(SmallScale(), 42)
		if err != nil {
			t.Fatal(err)
		}
		pipe := NewPipeline(w)
		pipe.Cfg.Parallelism = par
		res, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		checkScienceDigest(t, fmt.Sprintf("parallelism %d", par), scienceReport(t, res, 42))
	}
}
