package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyConfig runs every workload at budgets small enough for a test.
func tinyConfig(t *testing.T) runConfig {
	return runConfig{
		seconds:   0.01,
		budgets:   budgets{Pipeline: 2000, Trace: 4000, Long: 20000, Profile: 4000},
		setupReps: 1,
		out:       t.TempDir(),
		nproc:     runtime.NumCPU(),
	}
}

func checkMetrics(t *testing.T, r report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads()))
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the benchmark", w.Name)
		}
	}
}

// TestSelfTest runs every workload at a tiny budget: untraced, against
// a reference recorded here and against a deliberately altered one,
// and traced.
func TestSelfTest(t *testing.T) {
	b := readBenchmarkFile(t)
	ctx := context.Background()
	cfg := tinyConfig(t)
	ref, err := recordReference(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ref = ref
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(ctx, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d %v", r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			checkMetrics(t, r, b.EndToEnd)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			altered := cfg
			altered.ref = reference{Budgets: ref.Budgets, Cells: map[string]map[string]string{}}
			cells := map[string]string{}
			for k, d := range ref.Cells[w.name] {
				cells[k] = d
			}
			for k := range cells {
				cells[k] += " altered"
				break
			}
			altered.ref.Cells[w.name] = cells
			r, err = runWorkload(ctx, w, altered)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed == 0 {
				t.Errorf("altered reference digest: correct=%v failed=%d, want the altered cell reported as failed", r.Correct, r.Failed)
			}

			r, err = runTraced(ctx, w, cfg, t.TempDir()+"/spans.json")
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Errorf("traced run: %v", r.Failures)
			}
			checkMetrics(t, r, b.PerLayer)
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
