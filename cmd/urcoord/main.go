// Command urcoord coordinates a sharded multi-process sweep: it cuts the
// probe plan of a generated world into contiguous shard ranges, serves them
// to urhunter workers (started with -worker <this address>) over TCP,
// steals straggler tails for idle workers, survives worker death (shards
// re-issue from their journal checkpoints) and its own restart (-dir keeps
// the assignment book), then merges the shard journals and prints the same
// report a single-process urhunter run of the same plan would — byte for
// byte.
//
// Usage:
//
//	urcoord -dir DIR [-scale tiny|small|paper] [-seed N] [-chaos]
//	        [-listen ADDR] [-shards N] [-steal-after D] [-min-steal-units N]
//	        [-checkpoint-every N] [-top N] [-domains N]
//	        [-json FILE] [-csv FILE] [-all] [-pprof ADDR]
//
// Workers must be started with the same -scale, -seed, and -chaos so they
// sweep the identical plan; the coordinator rejects any that don't.
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
	"syscall"
	"time"

	"repro"
	"repro/internal/fleet"
)

func main() {
	scaleName := flag.String("scale", "tiny", "world scale: tiny, small, or paper")
	seed := flag.Int64("seed", 42, "world generation seed")
	chaos := flag.Bool("chaos", false, "inject the deterministic fault pattern (workers must match)")
	listen := flag.String("listen", "127.0.0.1:9555", "TCP address workers connect to")
	dir := flag.String("dir", "", "working directory: shard journals + assignment book (required)")
	shards := flag.Int("shards", 2, "initial shard count (work stealing rebalances)")
	stealAfter := flag.Duration("steal-after", 2*time.Second, "how long a shard runs before its tail may be stolen")
	minSteal := flag.Int("min-steal-units", 1, "smallest tail worth stealing")
	ckptEvery := flag.Int("checkpoint-every", 0, "shard journal checkpoint interval (0 = default)")
	top := flag.Int("top", 5, "providers shown in the Figure 2 breakdown")
	topDomains := flag.Int("domains", 10, "top malicious domains listed")
	jsonOut := flag.String("json", "", "write the classified records as JSON to this file")
	csvOut := flag.String("csv", "", "write the classified records as CSV to this file")
	allRecords := flag.Bool("all", false, "export every UR, not only the suspicious set")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	flag.Parse()

	log.SetFlags(log.Ltime)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "urcoord: -dir is required")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	scale, ok := repro.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "urcoord: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	start := time.Now()
	log.Printf("generating %s world (seed %d)...", scale.Name, *seed)
	world, err := repro.GenerateWorld(scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: generate: %v\n", err)
		os.Exit(1)
	}
	if *chaos {
		n := repro.ApplyDeterministicChaos(world)
		log.Printf("chaos: %d nameservers faulted (servfail, blackhole, wrong-id)", n)
	}
	cfg := world.URHunterConfig()
	log.Printf("world ready in %v: %d server units, plan %016x",
		time.Since(start).Round(time.Millisecond), cfg.PlanUnits(), cfg.PlanHash())

	co, err := fleet.NewCoordinator(cfg, fleet.CoordOptions{
		Dir: *dir, Shards: *shards, CheckpointEvery: *ckptEvery,
		StealAfter: *stealAfter, MinStealUnits: *minSteal,
		Logf: log.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: %v\n", err)
		os.Exit(1)
	}
	if err := co.Listen(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "urcoord: signal received, shutting down (assignment book kept; rerun to resume)")
		cancel()
		<-sig
		os.Exit(130)
	}()

	start = time.Now()
	if err := co.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: %v\n", err)
		os.Exit(1)
	}
	log.Printf("all shards done in %v, merging", time.Since(start).Round(time.Millisecond))

	res, err := co.Finish(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: merge: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(repro.RenderReport(res, *top, *topDomains))
	if err := repro.ExportFiles(os.Stdout, res, *jsonOut, *csvOut, *allRecords); err != nil {
		fmt.Fprintf(os.Stderr, "urcoord: %v\n", err)
		os.Exit(1)
	}
}
