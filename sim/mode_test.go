package sim_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/sim"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Mode
		ok   bool
	}{
		{"pipeline", sim.ModePipeline, true},
		{"trace", sim.ModeTrace, true},
		{"both", sim.ModePipeline | sim.ModeTrace, true},
		{"pipeline|trace", sim.ModePipeline | sim.ModeTrace, true},
		{"warp", 0, false},
		{"", 0, false},
		{"   ", 0, false},
		{"pipeline|", 0, false},
		{"|trace", 0, false},
	}
	for _, c := range cases {
		got, err := sim.ParseMode(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if s := (sim.ModePipeline | sim.ModeTrace).String(); s != "pipeline|trace" {
		t.Errorf("String() = %q", s)
	}
	if err := func() error {
		_, err := sim.New(sim.WithSchemes("conventional"), sim.WithMode(0))
		return err
	}(); err == nil {
		t.Error("WithMode(0) should fail validation")
	}
}

// TestParseModeEmptyNamesValidModes pins the contract shared by every
// mode flag (cmd/predsim -mode, cmd/experiments -mode, cmd/sweep
// -mode, the harness -simmode): an empty value is rejected with an
// error that names the valid modes, in both the multi- and
// single-mode parsers.
func TestParseModeEmptyNamesValidModes(t *testing.T) {
	for _, in := range []string{"", "  "} {
		for name, parse := range map[string]func(string) (sim.Mode, error){
			"ParseMode":       sim.ParseMode,
			"ParseSingleMode": sim.ParseSingleMode,
		} {
			_, err := parse(in)
			if err == nil {
				t.Fatalf("%s(%q) should fail", name, in)
			}
			msg := err.Error()
			if !strings.Contains(msg, "pipeline") || !strings.Contains(msg, "trace") {
				t.Errorf("%s(%q) error should name the valid modes, got %q", name, in, msg)
			}
		}
	}
}

// TestTraceModeExperiment runs a small matrix in both modes and checks
// the mode plumbing end to end: per-mode results, plausible trace
// statistics, empty memory counters in trace mode, and agreement
// between the modes on the committed stream.
func TestTraceModeExperiment(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 60000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModePipeline|sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*2*2 {
		t.Fatalf("want 8 results (2 bench × 2 modes × 2 schemes), got %d", len(results))
	}
	pipe := sim.FilterMode(results, sim.ModePipeline)
	tr := sim.FilterMode(results, sim.ModeTrace)
	if len(pipe) != 4 || len(tr) != 4 {
		t.Fatalf("mode split: %d pipeline, %d trace", len(pipe), len(tr))
	}
	for i := range tr {
		r := tr[i]
		if r.Err != nil {
			t.Fatalf("%s/%s trace run failed: %v", r.Bench, r.Scheme, r.Err)
		}
		if r.Stats.CondBranches == 0 || r.Stats.Committed < 59000 {
			t.Errorf("%s/%s: implausible trace stats %+v", r.Bench, r.Scheme, r.Stats)
		}
		if r.Stats.Cycles != 0 || r.Mem != (sim.MemStats{}) {
			t.Errorf("%s/%s: trace mode must not invent timing/memory state", r.Bench, r.Scheme)
		}
		// Same benchmark, same scheme, same committed stream: branch
		// counts agree with the pipeline run to the commit overshoot.
		p := pipe[i]
		if p.Bench != r.Bench || p.Scheme != r.Scheme {
			t.Fatalf("matrix order mismatch: %v vs %v", p, r)
		}
		d := int64(p.Stats.CondBranches) - int64(r.Stats.CondBranches)
		if d < -8 || d > 8 {
			t.Errorf("%s/%s: cond branches diverge: pipeline %d, trace %d",
				r.Bench, r.Scheme, p.Stats.CondBranches, r.Stats.CondBranches)
		}
	}
	// Both modes keep the paper's headline on this subset.
	for _, rs := range [][]sim.Result{pipe, tr} {
		tab, err := sim.Tabulate("check", []string{"conventional", "predpred"}, rs)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Average("predpred") >= tab.Average("conventional") {
			t.Errorf("predpred should beat conventional on this subset: %+v", tab)
		}
	}
}

// TestTraceDiskCache proves the record-once property: a second
// experiment over the same workload and budget replays entirely from
// the on-disk cache, with no re-emulation.
func TestTraceDiskCache(t *testing.T) {
	dir := t.TempDir()
	wl, err := sim.PrepareWorkload([]string{"twolf"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(20000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Err != nil {
			t.Fatalf("unexpected results: %+v", rs)
		}
	}
	before := trace.Recordings()
	run()
	afterFirst := trace.Recordings()
	if afterFirst != before+1 {
		t.Fatalf("first run should record exactly once: %d -> %d", before, afterFirst)
	}
	run()
	if got := trace.Recordings(); got != afterFirst {
		t.Fatalf("second run must hit the disk cache, but recorded %d more times", got-afterFirst)
	}

	// A larger budget invalidates the cached trace (it no longer covers
	// the run) and re-records.
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("predpred"),
		sim.WithCommits(40000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := trace.Recordings(); got != afterFirst+1 {
		t.Fatalf("larger budget should re-record once, got %d extra", got-afterFirst)
	}
}

// TestCorruptTraceCacheReRecords overwrites a cached trace with a
// header declaring a 1<<62-byte event stream: the next run must count
// the file on trace.cache.corrupt, record the trace again and produce
// the same statistics — never panic.
func TestCorruptTraceCacheReRecords(t *testing.T) {
	dir := t.TempDir()
	wl, err := sim.PrepareWorkload([]string{"twolf"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []sim.Result {
		t.Helper()
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithSchemes("predpred"),
			sim.WithCommits(20000),
			sim.WithMode(sim.ModeTrace),
			sim.WithTraceDir(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := exp.Run(context.Background())
		if err != nil || len(rs) != 1 || rs[0].Err != nil {
			t.Fatalf("run: %v, %+v", err, rs)
		}
		return rs
	}
	want := run()
	files, err := filepath.Glob(filepath.Join(dir, "*.pptrace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one cached trace, got %v (%v)", files, err)
	}
	hdr := append([]byte("PPTRACE1"), 0)   // magic, empty name
	hdr = append(hdr, make([]byte, 14)...) // hash, cap, steps, halted, counts, no regions
	hdr = binary.AppendUvarint(hdr, 1<<62) // event length
	if err := os.WriteFile(files[0], hdr, 0o600); err != nil {
		t.Fatal(err)
	}
	before := trace.SnapshotCounters()
	got := run()
	d := trace.SnapshotCounters().Since(before)
	if d.CacheCorrupt != 1 || d.CacheMisses != 0 || d.Recordings != 1 {
		t.Errorf("counter movement %+v, want one corrupt file and one re-recording", d)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-recorded run differs from the original")
	}
}

func TestPrepareWorkloadContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.PrepareWorkloadContext(ctx, []string{"gzip"}, 50000); err == nil {
		t.Fatal("want context error from cancelled preparation")
	}
}

func TestWorkloadRegionsReportsMembership(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip"}, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := wl.Regions("gzip"); !ok || n <= 0 {
		t.Fatalf("gzip should be present with converted regions, got %d, %v", n, ok)
	}
	if _, ok := wl.Regions("nosuch"); ok {
		t.Fatal("unknown benchmark must report ok=false, matching Subset's error behaviour")
	}
	if _, err := wl.Subset("nosuch"); err == nil {
		t.Fatal("Subset should still error for unknown names")
	}
}

// TestSimulateProgramTraceMode checks the single-program trace path
// used by cmd/predsim.
func TestSimulateProgramTraceMode(t *testing.T) {
	prog, err := sim.BuildBenchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
		Program:  prog,
		Scheme:   "predpred",
		Commits:  20000,
		Mode:     sim.ModeTrace,
		TraceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != sim.ModeTrace {
		t.Fatalf("mode = %v", res.Mode)
	}
	if res.Stats.CondBranches == 0 || res.Stats.PredPredictions == 0 {
		t.Fatalf("implausible trace stats: %+v", res.Stats)
	}
	if res.Mode == sim.ModeTrace && res.Stats.Cycles != 0 {
		t.Fatal("trace mode must not report cycles")
	}
}
