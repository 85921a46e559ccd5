// Command urhunter runs the full measurement pipeline over a generated
// world and prints the classification report: category summary, Table 1,
// Figure 2, and the Figure 3 analyses.
//
// Usage:
//
//	urhunter [-scale tiny|small|paper] [-seed N] [-top N] [-domains N]
//	         [-journal DIR | -resume DIR] [-checkpoint-every N]
//	         [-chaos] [-transport udp|dot|doh]
//	         [-pprof ADDR]
//	urhunter -worker ADDR [-worker-name NAME] [-scale ...] [-seed N] [-chaos]
//
// With -journal, every answered probe is checkpointed into DIR as the sweep
// runs; a run killed by SIGINT/SIGTERM (first signal drains gracefully,
// second hard-exits) can be continued with -resume DIR, skipping every
// already-answered probe and producing a byte-identical report.
//
// With -worker, urhunter is a fleet worker instead: it generates the same
// world (same -scale/-seed/-chaos as the urcoord coordinator), connects to
// ADDR, and sweeps the shards it is assigned until the coordinator sends
// shutdown. The report comes from the coordinator's merge, not the worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/fleet"
)

func main() {
	scaleName := flag.String("scale", "tiny", "world scale: tiny, small, or paper")
	seed := flag.Int64("seed", 42, "world generation seed")
	top := flag.Int("top", 5, "providers shown in the Figure 2 breakdown")
	topDomains := flag.Int("domains", 10, "top malicious domains listed")
	jsonOut := flag.String("json", "", "write the classified records as JSON to this file")
	csvOut := flag.String("csv", "", "write the classified records as CSV to this file")
	allRecords := flag.Bool("all", false, "export every UR, not only the suspicious set")
	journalDir := flag.String("journal", "", "checkpoint the sweep into this directory (created if missing)")
	resumeDir := flag.String("resume", "", "resume a checkpointed run from this directory")
	ckptEvery := flag.Int("checkpoint-every", 0, "flush the journal every N records (0 = default)")
	chaos := flag.Bool("chaos", false, "inject the deterministic fault pattern (fleet runs must match the coordinator)")
	transportKind := flag.String("transport", "udp", "wire transport for sweep exchanges: udp, dot, or doh (reports are byte-identical across all three)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	workerAddr := flag.String("worker", "", "run as a fleet worker for the urcoord coordinator at this address")
	workerName := flag.String("worker-name", "", "worker identity in coordinator logs (default host:pid)")
	workerDieAt := flag.Int64("worker-die-at-records", 0, "kill this worker once its shard journal holds N records (fleet fault-injection hook)")
	flag.Parse()

	if *journalDir != "" && *resumeDir != "" {
		fmt.Fprintln(os.Stderr, "urhunter: -journal and -resume are mutually exclusive (both name the same directory)")
		os.Exit(2)
	}
	if err := repro.ValidateTransport(*transportKind); err != nil {
		fmt.Fprintf(os.Stderr, "urhunter: -transport: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "urhunter: pprof: %v\n", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	scale, ok := repro.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "urhunter: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	start := time.Now()
	fmt.Printf("generating %s world (seed %d)...\n", scale.Name, *seed)
	world, err := repro.GenerateWorld(scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urhunter: generate: %v\n", err)
		os.Exit(1)
	}
	if *chaos {
		n := repro.ApplyDeterministicChaos(world)
		fmt.Printf("chaos: %d nameservers faulted (servfail, blackhole, wrong-id)\n", n)
	}
	fmt.Printf("world ready in %v: %d nameservers, %d targets, %d open resolvers, %d malware samples\n",
		time.Since(start).Round(time.Millisecond), len(world.Nameservers),
		len(world.Targets), len(world.Resolvers.Resolvers), len(world.Samples))

	if *workerAddr != "" {
		os.Exit(runWorker(world, *workerAddr, *workerName, *transportKind, *workerDieAt, *ckptEvery))
	}

	// First SIGINT/SIGTERM cancels the sweep context: in-flight probes
	// finish, the journal flushes, and the partial coverage books print.
	// A second signal hard-exits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "urhunter: signal received, draining sweep (signal again to hard-exit)")
		cancel()
		<-sig
		fmt.Fprintln(os.Stderr, "urhunter: second signal, exiting now")
		os.Exit(130)
	}()

	start = time.Now()
	var pipe *repro.Pipeline
	var journal *repro.Journal
	if dir := *journalDir + *resumeDir; dir != "" {
		if *resumeDir != "" {
			if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
				fmt.Fprintf(os.Stderr, "urhunter: -resume %s: no journal manifest there: %v\n", dir, err)
				os.Exit(2)
			}
		}
		pipe, journal, err = repro.NewJournaledPipelineTransport(world, *transportKind, dir, repro.JournalOptions{CheckpointEvery: *ckptEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "urhunter: journal: %v\n", err)
			os.Exit(1)
		}
		defer journal.Close()
		if journal.Resumed() {
			fmt.Printf("resuming from %s: %d answered probes replayed, %d failures refiled",
				dir, journal.ReplayedAnswered(), journal.ReplayedFailures())
			if torn := journal.ReplayStats().Torn; torn > 0 {
				fmt.Printf(" (%d torn segment tails discarded)", torn)
			}
			fmt.Printf(" [%s]\n", journal.ReplayStats())
		} else {
			fmt.Printf("checkpointing sweep into %s\n", dir)
		}
	} else {
		pipe, err = repro.NewPipelineTransport(world, *transportKind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urhunter: %v\n", err)
			os.Exit(2)
		}
	}
	res, err := pipe.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urhunter: pipeline: %v\n", err)
		if res != nil && res.Coverage != nil {
			cov := res.Coverage
			fmt.Fprintf(os.Stderr, "urhunter: partial coverage before interruption: %d/%d probes answered (%.1f%%), %d queries issued\n",
				cov.Answered, cov.Attempted, 100*cov.AnsweredRatio(), res.Queries)
		}
		if journal != nil {
			journal.Close()
			fmt.Fprintf(os.Stderr, "urhunter: journal holds %d new records; continue with -resume\n", journal.Appended())
		}
		os.Exit(1)
	}
	fmt.Printf("pipeline finished in %v (virtual network RTT %v)\n",
		time.Since(start).Round(time.Millisecond), world.Fabric.VirtualRTT().Round(time.Second))
	fmt.Printf("a real-world run of this query plan at the ethics appendix's pacing would take %v\n\n",
		pipe.Collector().PoliteScanEstimate().Round(time.Hour))

	fmt.Print(repro.RenderReport(res, *top, *topDomains))
	if err := repro.ExportFiles(os.Stdout, res, *jsonOut, *csvOut, *allRecords); err != nil {
		fmt.Fprintf(os.Stderr, "urhunter: %v\n", err)
		os.Exit(1)
	}
}

// runWorker runs the fleet-worker mode: sweep shards for the coordinator at
// addr until it sends shutdown. Returns the process exit code.
func runWorker(world *repro.World, addr, name, transportKind string, dieAt int64, ckptEvery int) int {
	log.SetFlags(log.Ltime)
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "urhunter: signal received, leaving fleet")
		cancel()
		<-sig
		os.Exit(130)
	}()

	// The shard journals this worker writes carry the transport in their
	// manifests; a coordinator merging over a different transport refuses.
	cfg := world.URHunterConfig()
	cfg.TransportKind = transportKind
	err := fleet.RunWorker(ctx, addr, cfg, fleet.WorkerOptions{
		Name:            name,
		CheckpointEvery: ckptEvery,
		DieAtRecords:    dieAt,
		// Real process death: records past the last journal checkpoint are
		// lost and the coordinator must re-issue the shard.
		Die:  func() { os.Exit(7) },
		Logf: log.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "urhunter: worker: %v\n", err)
		return 1
	}
	return 0
}
