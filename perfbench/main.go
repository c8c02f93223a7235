// Command perfbench is the repository benchmark. It measures the
// simulator end to end on four workloads (figures-pipeline,
// figures-trace, sweep-warm, replay-parallel) and, in a separate traced
// run, layer by layer. Run it from the repository root through
// perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload figures-trace --seed 0 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for
// what each workload exercises and how to read the traced run.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed reference.json
var referenceJSON []byte

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed      = flag.Int64("seed", 0, "workload seed; offsets every benchmark spec's Seed (0 = the paper suite unchanged)")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
		out       = flag.String("out", ".bench_build", "directory for private trace caches and the span file")
		updateRef = flag.String("update-reference", "", "write the default-seed cell digests of every workload to this file and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *out, *updateRef); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, out, updateRef string) error {
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed:          seed,
		seconds:       seconds,
		budgets:       defaultBudgets(),
		setupReps:     3,
		minSetupPhase: minSetupPhase,
		out:           out,
		ref:           ref,
		nproc:         runtime.NumCPU(),
	}
	ctx := context.Background()
	if updateRef != "" {
		return writeReference(ctx, cfg, updateRef)
	}

	var ws []*workload
	if name == "all" {
		ws = workloads()
	} else {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames(), ", "))
		}
		ws = []*workload{w}
	}

	total := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var r report
		if traced == 1 {
			spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
			r, err = runTraced(ctx, w, cfg, spans)
			if err == nil {
				fmt.Printf("%s: spans written to %s\n", w.name, spans)
			}
		} else {
			r, err = runWorkload(ctx, w, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(w.name, r)
		if len(ws) == 1 {
			total = r
			break
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(total.result())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's outcome: the correctness gate's counts, the
// metrics, and the host record that explains them.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Host      hostRecord
	Failures  []string // first few failed cells, for the log
}

// result is the shape of the benchmark's last output line.
func (r report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func printReport(name string, r report) {
	host, _ := json.Marshal(r.Host)
	fmt.Printf("%s: host %s\n", name, host)
	for _, f := range r.Failures {
		fmt.Printf("%s: FAILED %s\n", name, f)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %-40s %16.6g %s\n", name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
}
