// Command voicebench is the repository's spoken-answer benchmark. It
// serves the in-process web.Server over loopback HTTP with
// cmd/voiceolapd's default configuration, drives one named workload from
// a seed with closed-loop clients, checks every answer off the clock, and
// prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is followed by a traced replay of the same requests through the
// layers' public entry points, and the metrics are the per-layer ones.
// A stamped report with sample counts, and the trace's spans, are written
// under .bench_build/voicebench-out/. See NOTES.md.
//
// Usage (from the repository root):
//
//	bash voicebench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds the per-run reports and span files, inside the checkout.
const outDir = ".bench_build/voicebench-out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = follow the run with a traced replay and report per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: voicebench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	rep, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voicebench:", err)
		os.Exit(1)
	}
	if err := writeReport(rep, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)); err != nil {
		fmt.Fprintln(os.Stderr, "voicebench: report:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voicebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is the stamped record of one run, written beside the spans.
type report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Stamp    map[string]any    `json:"stamp"`
	Samples  map[string]int    `json:"samples"`
	Checks   map[string]any    `json:"checks"`
	Extra    map[string]metric `json:"extra"`
	Layers   []layerRow        `json:"layers,omitempty"`
	Result   result            `json:"result"`
	spans    []span
}

func writeReport(rep *report, stem string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, stem+".json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if rep.spans != nil {
		if err := writeSpans(filepath.Join(outDir, stem+".spans.jsonl"), rep.spans); err != nil {
			return err
		}
	}
	// Human-readable summary before the result line.
	keys := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-32s %14.4f %s\n", k, rep.Extra[k].Value, rep.Extra[k].Unit)
	}
	fmt.Printf("# samples %v\n# checks %v\n# report %s\n", rep.Samples, rep.Checks, filepath.Join(outDir, stem+".json"))
	return nil
}

// stamp records where and on what a result was measured.
func stamp(w workload, seed int64) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"seed":       seed,
		"clients":    w.queryClients,
		"rows":       w.rows,
	}
}
