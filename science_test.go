package repro

import (
	"bytes"
	"context"
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

// TestScienceUnmovedByJournalAndResume pins the paper-facing numbers at the
// benchmark's scale and seed, so a change to the sweep, the journal or the
// resume path cannot move one silently: a plain sweep, a journaled sweep and
// a resume of the finished journal must render the same bytes, and the
// counts are the constants bench/ reports as core.queries, core.urs and
// core.suspicious.
func TestScienceUnmovedByJournalAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale world: three sweeps, several seconds")
	}
	const seed = 42
	w, err := GenerateWorld(SmallScale(), seed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPipeline(w).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Queries != 568710 || len(plain.URs) != 62584 || len(plain.Suspicious) != 6638 {
		t.Errorf("small scale, seed %d: %d queries, %d URs, %d suspicious; pinned 568710, 62584, 6638",
			seed, plain.Queries, len(plain.URs), len(plain.Suspicious))
	}
	want := scienceReport(t, plain, seed)

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
}
