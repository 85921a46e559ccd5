package core_test

import (
	"context"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// processCPU is the user + system CPU time this process has used so far.
func processCPU(b *testing.B) time.Duration {
	b.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkSweepCPUAcrossProcs reads what a second core costs the sweep. Its
// workers have nothing to say to each other — a worker owns a server for a
// whole job — so the same warm sweep of the small world should take the same
// process CPU on two Ps as on one: every per cent more is cache lines moving
// between cores, because some write on a probe's path lands in memory another
// worker also writes (DESIGN §6, "what a probe may write"). An iteration is one
// alternation, a sweep at GOMAXPROCS 1 then one at 2; the recipe is five:
//
//	go test -run '^$' -bench SweepCPUAcrossProcs -benchtime 5x ./internal/core
//
// It reports the two medians and their ratio, 2P/1P. It is a reading, not a
// gate: on a shared two-core host one run's ratio moves by ±0.1 with the
// neighbours' load (DESIGN §6 has the distributions), which is as far as the
// ratio fell when the shared words came off the path.
func BenchmarkSweepCPUAcrossProcs(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs two cores")
	}
	w, err := scenario.Generate(scenario.Small(), 42)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		runtime.GC()
		before := processCPU(b)
		if _, err := core.NewPipeline(w.URHunterConfig()).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return processCPU(b) - before
	}
	sweep(2) // the open resolvers' caches fill on the first pass
	var one, two []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one = append(one, sweep(1))
		two = append(two, sweep(2))
	}
	b.StopTimer()
	b.Logf("GOMAXPROCS 1: %v", one)
	b.Logf("GOMAXPROCS 2: %v", two)
	median := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(ds[len(ds)/2]) / float64(time.Millisecond)
	}
	m1, m2 := median(one), median(two)
	b.ReportMetric(m1, "cpu-ms/sweep@1P")
	b.ReportMetric(m2, "cpu-ms/sweep@2P")
	b.ReportMetric(m2/m1, "2P/1P")
}
