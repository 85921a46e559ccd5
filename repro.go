// Package repro is the public facade of the reproduction of "Wolf in
// Sheep's Clothing: Evaluating Security Risks of the Undelegated Record on
// DNS Hosting Services" (IMC 2023).
//
// The library builds a simulated Internet — delegation hierarchy, hosting
// providers with their real policy matrices, open resolvers, threat
// intelligence, a malware sandbox and IDS — and runs the paper's URHunter
// measurement framework over it. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record of every table and figure.
//
// Quick start:
//
//	world, _ := repro.GenerateWorld(repro.TinyScale(), 42)
//	result, _ := repro.RunURHunter(context.Background(), world)
//	fmt.Print(repro.RenderTable1(result))
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// Scale sizes a generated world; see the constructors below.
type Scale = scenario.Scale

// World is a generated measurement universe.
type World = scenario.World

// Result is a URHunter run's classified output.
type Result = core.Result

// Pipeline chains the three URHunter components; see NewPipeline.
type Pipeline = core.Pipeline

// UR is one undelegated record with enrichment and classification.
type UR = core.UR

// Scales.
var (
	// TinyScale is for tests and demos (sub-second sweeps).
	TinyScale = scenario.Tiny
	// SmallScale is the default experiment scale (~1/8 of the paper).
	SmallScale = scenario.Small
	// PaperScale approximates the full measurement (8,941 nameservers).
	PaperScale = scenario.Paper
	// ScaleByName resolves "tiny", "small", or "paper".
	ScaleByName = scenario.ByName
)

// Record categories, re-exported for report consumers.
const (
	CategoryUnknown    = core.CategoryUnknown
	CategoryCorrect    = core.CategoryCorrect
	CategoryProtective = core.CategoryProtective
	CategoryMalicious  = core.CategoryMalicious
)

// GenerateWorld builds a world at the given scale, deterministic in seed.
func GenerateWorld(scale Scale, seed int64) (*World, error) {
	return scenario.Generate(scale, seed)
}

// RunURHunter executes the full pipeline (§4.1–§4.3) over a world.
func RunURHunter(ctx context.Context, w *World) (*Result, error) {
	return NewPipeline(w).Run(ctx)
}

// NewPipeline exposes the pipeline for callers that tune the determiner
// (the Appendix B ablation) or need the false-negative check.
func NewPipeline(w *World) *core.Pipeline {
	return core.NewPipeline(w.URHunterConfig())
}

// ValidateTransport checks a wire-transport name ("", "udp", "dot", "doh");
// the empty string is the udp default. CLIs call this before building
// pipelines so a typo fails at flag parse, not mid-sweep.
func ValidateTransport(kind string) error {
	_, err := transport.ParseKind(kind)
	return err
}

// NewPipelineTransport is NewPipeline with the sweep carried over the given
// wire transport. Reports are byte-identical across transports — only the
// virtual-clock accounting and the failure books differ — so the choice is
// an operational one, not a measurement one.
func NewPipelineTransport(w *World, kind string) (*core.Pipeline, error) {
	if err := ValidateTransport(kind); err != nil {
		return nil, err
	}
	cfg := w.URHunterConfig()
	cfg.TransportKind = kind
	return core.NewPipeline(cfg), nil
}

// Journal is a sweep checkpoint store: per-worker append-only segment files
// plus a manifest binding them to one (seed, plan) identity.
type Journal = core.Journal

// JournalOptions tunes checkpointing (flush-to-disk frequency).
type JournalOptions = core.JournalOptions

// NewJournaledPipeline builds a pipeline whose sweeps checkpoint into dir.
// If dir already holds a journal for the same world seed and query plan, the
// prior run's answered probes are replayed instead of re-queried and the
// resumed run's report is byte-identical to an uninterrupted one. Close the
// returned Journal after the run.
func NewJournaledPipeline(w *World, dir string, opts JournalOptions) (*core.Pipeline, *Journal, error) {
	return NewJournaledPipelineTransport(w, "", dir, opts)
}

// NewJournaledPipelineTransport is NewJournaledPipeline over a chosen wire
// transport. The transport is set before the journal opens: manifests record
// it, and resuming a directory swept over a different transport fails with
// the cross-transport mismatch error rather than mixing incomparable failure
// books.
func NewJournaledPipelineTransport(w *World, kind, dir string, opts JournalOptions) (*core.Pipeline, *Journal, error) {
	if err := ValidateTransport(kind); err != nil {
		return nil, nil, err
	}
	cfg := w.URHunterConfig()
	cfg.TransportKind = kind
	j, err := core.OpenJournal(dir, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = j
	return core.NewPipeline(cfg), j, nil
}
