package sim_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/sim"
)

// warmTestSweep runs the canonical warm-start sweep — two benchmarks ×
// two schemes over pred.bytes (replay-visible) × mispredict.penalty
// (carryover) — and returns its sorted results.
func warmTestSweep(t *testing.T, traceDir string, warm bool, opts ...sim.Option) []sim.SweepResult {
	t.Helper()
	base := []sim.Option{
		sim.WithSuite("gzip", "vpr"),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(50000),
		sim.WithProfileSteps(50000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(traceDir),
		sim.WithParallelism(2),
	}
	exp, err := sim.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.NewSweep(exp,
		sim.WithAxis("pred.bytes", 75776, 151552),
		sim.WithAxis("mispredict.penalty", 5, 10, 15, 20),
		sim.WithWarmStart(warm),
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// sweepCSV renders sweep results through the long-format CSV sink.
func sweepCSV(t *testing.T, rs []sim.SweepResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := sim.NewSweepCSVSink(&buf, []string{"pred.bytes", "mispredict.penalty"})
	if err := sim.EmitAllSweep(s, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmSweepByteIdenticalToCold is the warm-start acceptance check:
// a warm-started sweep must emit byte-identical long-format rows to a
// cold sweep of the same grid, while actually reusing replay
// statistics across the carryover axis (observed through the
// process-wide warm-start counters).
func TestWarmSweepByteIdenticalToCold(t *testing.T) {
	dir := t.TempDir()
	before := sim.ProcessMetrics()
	cold := warmTestSweep(t, dir, false)
	mid := sim.ProcessMetrics()
	if d := mid.CounterValue("sweep.warmstart.hits") - before.CounterValue("sweep.warmstart.hits"); d != 0 {
		t.Fatalf("cold sweep must not touch the warm-start memo, got %d hits", d)
	}
	warm := warmTestSweep(t, dir, true)
	after := sim.ProcessMetrics()

	// 8 points, 2 distinct non-carryover coordinates, 2 workers with one
	// contiguous chunk each: the first point of each coordinate replays
	// (2 benches × 2 schemes = 4 misses per worker), the other 3 points
	// of the chunk reuse it (12 hits per worker).
	hits := after.CounterValue("sweep.warmstart.hits") - mid.CounterValue("sweep.warmstart.hits")
	misses := after.CounterValue("sweep.warmstart.misses") - mid.CounterValue("sweep.warmstart.misses")
	if hits != 24 || misses != 8 {
		t.Errorf("warm sweep should reuse 24 cells and replay 8, got %d hits / %d misses", hits, misses)
	}

	if len(cold) != 8 || len(warm) != 8 {
		t.Fatalf("want 8 points each, got cold=%d warm=%d", len(cold), len(warm))
	}
	for i := range cold {
		for _, r := range cold[i].Results {
			if r.Err != nil {
				t.Fatalf("cold point %d %s/%s: %v", i, r.Bench, r.Scheme, r.Err)
			}
		}
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-started sweep results differ from cold sweep")
	}
	if c, w := sweepCSV(t, cold), sweepCSV(t, warm); !bytes.Equal(c, w) {
		t.Fatalf("warm sweep CSV rows not byte-identical to cold:\ncold:\n%swarm:\n%s", c, w)
	}

	// The carryover axis really is timing-only: replay stats must be
	// identical across mispredict.penalty at fixed pred.bytes ...
	for i := 1; i < 4; i++ {
		if !reflect.DeepEqual(cold[0].Results, cold[i].Results) {
			t.Errorf("points 0 and %d differ only in mispredict.penalty but have different replay stats", i)
		}
	}
	// ... while the replay-visible axis still changes something.
	if reflect.DeepEqual(cold[0].Results, cold[4].Results) {
		t.Error("sweeping pred.bytes 75776→151552 changed nothing; axis not applied?")
	}
}

// TestWarmSweepManifests pins warm-start provenance in run manifests:
// warmed cells are flagged WarmStart with no timing phases.
func TestWarmSweepManifests(t *testing.T) {
	o := sim.NewObserver()
	rs := warmTestSweep(t, t.TempDir(), true,
		sim.WithObserver(o),
		sim.WithParallelism(1),
	)
	if len(rs) != 8 {
		t.Fatalf("want 8 points, got %d", len(rs))
	}

	ms := o.Manifests()
	if len(ms) != 32 {
		t.Fatalf("want 32 cell manifests, got %d", len(ms))
	}
	warmed, replayed := 0, 0
	for _, m := range ms {
		if m.WarmStart {
			warmed++
			if len(m.PhasesNS) != 0 {
				t.Errorf("warmed cell %s/%s point %d has timing phases %v", m.Bench, m.Scheme, m.Point, m.PhasesNS)
			}
			continue
		}
		replayed++
	}
	// One worker, 8 points, 2 non-carryover coordinates: 2×4 cells
	// replay, the rest reuse.
	if warmed != 24 || replayed != 8 {
		t.Errorf("want 24 warmed / 8 replayed cells, got %d / %d", warmed, replayed)
	}
}
