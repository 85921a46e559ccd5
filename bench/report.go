package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// child runs one workload in a process of its own (so set-up time and peak
// RSS are per workload) and returns the record it left behind.
func child(workload string, seed int64, seconds, trace int, outDir string) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // the result is read from the record the child leaves
	if err := cmd.Run(); err != nil {
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		return nil, fmt.Errorf("%s (seed %d, trace %d): %v: %s", workload, seed, trace, err, lines[len(lines)-1])
	}
	data, err := os.ReadFile(recordPath(outDir, workload, trace))
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: record: %w", workload, err)
	}
	return &rec, nil
}

// hostShape describes where and how a document was measured.
type hostShape struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	References map[string]float64 `json:"reference_constants"`
}

func shapeOf(seed int64, seconds int) hostShape {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return hostShape{
		NProc: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds,
		References: map[string]float64{
			"refprobe_ms":   refProbeMs,
			"udp_echo_qps":  refUDPEchoQPS,
			"http_echo_qps": refHTTPEchoQPS,
		},
	}
}

// docMetric is one metric of one workload in the combined document.
type docMetric struct {
	metricDef
	Kind   string  `json:"kind"` // end_to_end or per_layer
	Median float64 `json:"median"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type docWorkload struct {
	workloadDef
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Metrics   []docMetric `json:"metrics"`
}

// runAll runs every workload twice, untraced then traced, and prints one
// document with every metric by name.
func runAll(seed int64, seconds int, outDir string) error {
	doc := struct {
		Host      hostShape     `json:"host"`
		Workloads []docWorkload `json:"workloads"`
	}{Host: shapeOf(seed, seconds)}
	for _, wl := range append(append([]workloadDef(nil), workloads...), ungated...) {
		dw := docWorkload{workloadDef: wl, Correct: true}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			fmt.Fprintf(os.Stderr, "bench: %s, trace %d...\n", wl.Name, trace)
			rec, err := child(wl.Name, seed, seconds, trace, outDir)
			if err != nil {
				return err
			}
			if trace == 0 {
				dw.Attempted, dw.Failed = rec.Result.Attempted, rec.Result.Failed
			}
			dw.Correct = dw.Correct && rec.Result.Correct
			kind := [...]string{"end_to_end", "per_layer"}[trace]
			for _, d := range defs {
				v := rec.Result.Metrics[d.Name]
				dw.Metrics = append(dw.Metrics, docMetric{d, kind, v.Value, v.N, v.Q1, v.Q3})
			}
		}
		doc.Workloads = append(doc.Workloads, dw)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	for _, dw := range doc.Workloads {
		fmt.Fprintf(os.Stderr, "\n%s  correct=%t attempted=%d failed=%d\n", dw.Name, dw.Correct, dw.Attempted, dw.Failed)
		for _, m := range dw.Metrics {
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("bound %.2f", m.Bound)
			}
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s %-6s n=%-3d %s\n", m.Name, m.Median, m.Unit, m.Better, m.N, bound)
		}
	}
	fmt.Println(string(data))
	return nil
}

// runSelfcheck is the acceptance procedure applied to ourselves: two sets of
// n untraced runs per workload, each run on another seed, and for every
// workload x end-to-end metric both medians, the gap between them, and the
// spread inside each set (interquartile distance as a share of the median).
// Its output is committed as REPEATABILITY.md.
func runSelfcheck(n int, seed int64, seconds int, outDir string) error {
	type cell struct{ sets, raw [2][]float64 }
	cells := map[string]*cell{}
	key := func(w, m string) string { return w + "/" + m }
	var failedShare [2]map[string]float64
	t0 := time.Now()
	for set := 0; set < 2; set++ {
		failedShare[set] = map[string]float64{}
		for _, wl := range workloads {
			var attempted, failed int64
			for i := 0; i < n; i++ {
				rec, err := child(wl.Name, seed+int64(i), seconds, 0, outDir)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d done in %.1fs\n", set+1, wl.Name, seed+int64(i), rec.WallS)
				attempted += rec.Result.Attempted
				failed += rec.Result.Failed
				for _, d := range endToEnd {
					c := cells[key(wl.Name, d.Name)]
					if c == nil {
						c = &cell{}
						cells[key(wl.Name, d.Name)] = c
					}
					c.sets[set] = append(c.sets[set], rec.Result.Metrics[d.Name].Value)
					if raw, ok := rec.Notes["raw_"+d.Name]; ok {
						c.raw[set] = append(c.raw[set], raw)
					}
				}
			}
			failedShare[set][wl.Name] = float64(failed) / float64(attempted)
		}
	}

	h := shapeOf(seed, seconds)
	fmt.Printf("# Repeatability\n\n")
	fmt.Printf("`go run ./bench -selfcheck %d -seed %d -seconds %d`, %s, %d CPUs, GOMAXPROCS %d, %.0f s in all.\n\n",
		n, seed, seconds, h.GoVersion, h.NProc, h.GOMAXPROCS, time.Since(t0).Seconds())
	fmt.Printf("Two sets of %d untraced runs per workload, run back to back; run i of each set uses seed %d+i.\n", n, seed)
	fmt.Printf("`gap` is how much worse the second set's median is than the first's (negative: better);\n")
	fmt.Printf("`spread` is the distance between the first and third quartile of a set as a share of its median.\n")
	fmt.Printf("The benchmark is accepted when every spread but `setup_s`'s is within the bound and every gap is.\n")
	fmt.Printf("`raw` is the spread of the same runs' timings before they were divided by the host probes either side of them.\n\n")
	fmt.Printf("| workload | metric | median 1 | median 2 | gap | spread 1 | spread 2 | bound | raw 1 | raw 2 |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	ok := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			c := cells[key(wl.Name, d.Name)]
			m1, m2 := median(c.sets[0]), median(c.sets[1])
			gap := (m2 - m1) / m1
			if d.Better == "higher" {
				gap = -gap
			}
			s1, s2 := spread(c.sets[0]), spread(c.sets[1])
			mark := ""
			if gap > d.Bound || (d.Name != "setup_s" && (s1 > d.Bound || s2 > d.Bound)) {
				mark, ok = " **over**", false
			}
			raw := "— | —"
			if len(c.raw[0]) >= 2 && len(c.raw[1]) >= 2 {
				raw = fmt.Sprintf("%.1f%% | %.1f%%", 100*spread(c.raw[0]), 100*spread(c.raw[1]))
			}
			fmt.Printf("| %s | %s (%s) | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.0f%%%s | %s |\n",
				wl.Name, d.Name, d.Unit, m1, m2, 100*gap, 100*s1, 100*s2, 100*d.Bound, mark, raw)
		}
	}
	fmt.Printf("\nEvery run, in the order made:\n\n| workload | metric | set | values |\n|---|---|---|---|\n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			for set, vs := range cells[key(wl.Name, d.Name)].sets {
				fmt.Printf("| %s | %s | %d |", wl.Name, d.Name, set+1)
				for _, v := range vs {
					fmt.Printf(" %.4g", v)
				}
				fmt.Printf(" |\n")
			}
		}
	}
	fmt.Printf("\nShare of operations failed, set 1 / set 2:")
	for _, wl := range workloads {
		fmt.Printf(" %s %g / %g;", wl.Name, failedShare[0][wl.Name], failedShare[1][wl.Name])
	}
	fmt.Println()
	if !ok {
		return fmt.Errorf("selfcheck: a gap or spread is over its bound")
	}
	return nil
}
