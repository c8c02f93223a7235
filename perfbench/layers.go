package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/peppa"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/sim"
)

// span is one timed call in the traced run. Parent is the ID of the
// enclosing span (0 for the root); times are nanoseconds since the run
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; the run writes them
// out when it ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, f func()) time.Duration {
	t.begin(name)
	f()
	return t.end()
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// allocs is a runtime.MemStats delta: bytes and objects allocated.
type allocs struct{ bytes, objects uint64 }

func (a *allocs) add(b allocs) { a.bytes += b.bytes; a.objects += b.objects }

// measureAllocs returns the least allocation delta over reps calls of
// f, each made on one P with the collector off. The runtime adds a few
// allocations of its own to a call's delta (a sudog when a goroutine
// parks, a fresh tiny-allocator block after a collection), so single
// deltas differ by a few objects; this way the counts repeat exactly.
// The calls are for counting only: time f separately.
func measureAllocs(reps int, f func()) allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var least allocs
	for i := 0; i < reps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		a := allocs{bytes: m1.TotalAlloc - m0.TotalAlloc, objects: m1.Mallocs - m0.Mallocs}
		if i == 0 || a.objects < least.objects || a.objects == least.objects && a.bytes < least.bytes {
			least = a
		}
	}
	runtime.GC()
	return least
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// binaries is one benchmark's programs, built by direct layer calls.
type binaries struct {
	spec    sim.BenchSpec
	plain   *program.Program
	conv    *program.Program
	regions []trace.Region
}

func (b binaries) prog(converted bool) *program.Program {
	if converted {
		return b.conv
	}
	return b.plain
}

// recorded is one recorded trace of the traced run, also stored in its
// private cache directory under key.
type recorded struct {
	bench     string
	converted bool
	key       string
	tr        *trace.Trace
}

// layerRun is the traced run's state: the workload's binaries and
// traces built through direct layer calls, and the metrics so far.
type layerRun struct {
	cfg     runConfig
	tr      *tracer
	dir     string // private trace directory of the direct calls
	bins    []binaries
	traces  []recorded
	metrics map[string]metric
}

func (l *layerRun) set(name, unit string, v float64) { l.metrics[name] = metric{Value: v, Unit: unit} }

func (l *layerRun) find(bench string, converted bool) *recorded {
	for i := range l.traces {
		if l.traces[i].bench == bench && l.traces[i].converted == converted {
			return &l.traces[i]
		}
	}
	return nil
}

func (l *layerRun) bin(bench string) binaries {
	for _, b := range l.bins {
		if b.spec.Name == bench {
			return b
		}
	}
	panic("perfbench: no binaries for " + bench)
}

// residualReps is how many end-to-end samples and direct-call
// reproductions of them the traced run times; sim.residual_frac
// compares their medians.
const residualReps = 3

// runTraced is the traced run: one set-up, end-to-end samples at runner
// parallelism 1, the same cells reproduced through direct layer calls
// (the difference is sim.residual_frac), then timed calls into each
// layer's public functions.
func runTraced(ctx context.Context, w *workload, cfg runConfig, spansPath string) (report, error) {
	host := startHost(w, cfg)
	tr := newTracer()
	tr.begin("traced-run " + w.name)
	dir, err := os.MkdirTemp(cfg.out, "layers-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	l := &layerRun{cfg: cfg, tr: tr, dir: dir, metrics: map[string]metric{}}
	chk := newChecker(w, cfg)

	tr.begin("setup")
	cfg.setupReps, cfg.minSetupPhase = 1, 0
	st, _, err := setupAll(ctx, w, cfg, 1)
	tr.end()
	if err != nil {
		return report{}, err
	}
	defer st.close()
	if err := chk.expect(ctx, st); err != nil {
		return report{}, err
	}
	var e2e []float64
	for i := 0; i <= residualReps; i++ {
		name := "e2e.sample"
		if i == 0 {
			name = "e2e.warmup"
		}
		tr.begin(name)
		s, err := st.sample(ctx, 0)
		tr.end()
		if err != nil {
			return report{}, err
		}
		chk.check(s.cells)
		if i > 0 {
			e2e = append(e2e, s.wall.Seconds())
		}
	}
	st.stop() // nothing of the workload may run while the layers are timed

	if err := l.buildBinaries(w); err != nil {
		return report{}, err
	}
	if err := l.recordTraces(ctx, w); err != nil {
		return report{}, err
	}
	var layers []float64
	for i := 0; i < residualReps; i++ {
		tr.begin("reproduce")
		cells, wall, err := w.reproduce(ctx, l, st)
		tr.end()
		if err != nil {
			return report{}, err
		}
		chk.check(cells) // the direct calls must reproduce the façade's digests
		layers = append(layers, wall.Seconds())
	}
	l.set("sim.residual_frac", "ratio", (median(e2e)-median(layers))/median(e2e))

	for _, step := range []func(context.Context) error{l.replays, l.parallel, l.predictors, l.pipelines} {
		if err := step(ctx); err != nil {
			return report{}, err
		}
	}
	if err := l.memo(ctx, st); err != nil {
		return report{}, err
	}
	tr.end()
	if err := tr.write(spansPath); err != nil {
		return report{}, err
	}
	r := report{Metrics: l.metrics}
	chk.fill(&r)
	r.Host = host.finish(nil)
	return r, nil
}

// buildBinaries prepares every benchmark of the workload through
// bench.Build, ifconvert.ProfileProgram and ifconvert.Convert, and
// times the functional emulator over the profiling budget.
func (l *layerRun) buildBinaries(w *workload) error {
	specs, err := seededSpecs(l.cfg.seed, w.benches...)
	if err != nil {
		return err
	}
	var build, profile, convert, emu time.Duration
	var steps uint64
	for _, s := range specs {
		b := binaries{spec: s}
		var prof ifconvert.Profile
		var res *ifconvert.Result
		var cerr error
		build += l.tr.timed("bench.Build "+s.Name, func() { b.plain = bench.Build(s) })
		profile += l.tr.timed("ifconvert.ProfileProgram "+s.Name, func() { prof = ifconvert.ProfileProgram(b.plain, l.cfg.budgets.Profile) })
		convert += l.tr.timed("ifconvert.Convert "+s.Name, func() { res, cerr = ifconvert.Convert(b.plain, ifconvert.DefaultOptions(prof)) })
		if cerr != nil {
			return fmt.Errorf("%s: %w", s.Name, cerr)
		}
		b.conv = res.Prog
		for _, h := range res.Converted {
			b.regions = append(b.regions, trace.Region{Kind: uint8(h.Kind), BranchPC: h.Branch})
		}
		emu += l.tr.timed("emulator.Run "+s.Name, func() { steps += emulator.New(b.plain).Run(l.cfg.budgets.Profile) })
		l.bins = append(l.bins, b)
	}
	l.set("bench.build_ms", "ms", ms(build))
	l.set("ifconvert.profile_ms", "ms", ms(profile))
	l.set("ifconvert.convert_ms", "ms", ms(convert))
	l.set("emulator.ns_per_step", "ns/step", perUnit(emu, steps))
	return nil
}

// recordTraces records, stores, reloads and decodes every trace the
// workload replays (figures-pipeline replays none; it records the
// figure traces at its own budget so the layer is still measured).
func (l *layerRun) recordTraces(ctx context.Context, w *workload) error {
	budget := w.commits(l.cfg.budgets)
	var record, load, decode time.Duration
	var instrs, bytes, events uint64
	buf := make([]trace.Event, 1024)
	for _, b := range l.bins {
		for _, conv := range w.variants {
			var regions []trace.Region
			if conv {
				regions = b.regions
			}
			rec := recorded{bench: b.spec.Name, converted: conv, key: trace.Key(b.spec.Name, fmt.Sprint(conv))}
			var err error
			record += l.tr.timed(fmt.Sprintf("trace.Record %s converted=%v", b.spec.Name, conv), func() {
				rec.tr, err = trace.Record(ctx, b.prog(conv), trace.Options{MaxSteps: budget, Regions: regions})
			})
			if err != nil {
				return err
			}
			if err := trace.Store(l.dir, rec.key, rec.tr); err != nil {
				return err
			}
			var loaded *trace.Trace
			load += l.tr.timed("trace.Load "+b.spec.Name, func() { loaded, err = trace.Load(l.dir, rec.key) })
			if err != nil || loaded == nil {
				return fmt.Errorf("trace.Load %s: stored trace did not load (%v)", b.spec.Name, err)
			}
			var size countingWriter
			if err := rec.tr.EncodeTo(&size); err != nil {
				return err
			}
			decode += l.tr.timed("trace.Cursor.NextBatch "+b.spec.Name, func() {
				c := loaded.EventCursor()
				for n := c.NextBatch(buf); n > 0; n = c.NextBatch(buf) {
					events += uint64(n)
				}
				err = c.Err()
			})
			if err != nil {
				return err
			}
			instrs += rec.tr.Steps
			bytes += size.n
			l.traces = append(l.traces, rec)
		}
	}
	l.set("trace.record.ns_per_instr", "ns/instr", perUnit(record, instrs))
	l.set("trace.bytes_per_instr", "B/instr", float64(bytes)/float64(instrs))
	l.set("trace.load.ns_per_instr", "ns/instr", perUnit(load, instrs))
	l.set("trace.decode.ns_per_event", "ns/event", perUnit(decode, events))
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// replays times the single-pass multi-scheme replay of every trace
// through stats.ReplayAllTimed, and counts the allocations of an
// untimed session replay.
func (l *layerRun) replays(ctx context.Context) error {
	cfgs := threeConfigs(nil)
	budget := uint64(0)
	var frontend time.Duration
	engine := make([]time.Duration, len(cfgs))
	var instrs uint64
	var al allocs
	for _, rec := range l.traces {
		budget = rec.tr.Cap
		var sts []sim.Stats
		var tm *stats.Timings
		var err error
		l.tr.timed("stats.ReplayAllTimed "+rec.bench, func() {
			sts, tm, err = stats.ReplayAllTimed(ctx, cfgs, rec.tr, budget, func() int64 { return time.Now().UnixNano() })
		})
		if err != nil {
			return err
		}
		frontend += time.Duration(tm.FrontendNS)
		for i := range engine {
			engine[i] += time.Duration(tm.EngineNS[i])
		}
		instrs += sts[0].Committed
		l.tr.begin("allocs stats.Session.ReplayAll " + rec.bench)
		al.add(measureAllocs(2, func() { _, err = stats.NewSession(rec.tr).ReplayAll(ctx, cfgs, budget) }))
		l.tr.end()
		if err != nil {
			return err
		}
	}
	l.set("stats.frontend.ns_per_instr", "ns/instr", perUnit(frontend, instrs))
	for i, name := range three {
		l.set("stats.engine."+name+".ns_per_instr", "ns/instr", perUnit(engine[i], instrs))
	}
	l.set("stats.replay.bytes_per_instr", "B/instr", float64(al.bytes)/float64(instrs))
	l.set("stats.replay.allocs_per_instr", "allocs/instr", float64(al.objects)/float64(instrs))
	return nil
}

func threeConfigs(mutate func(*sim.Config)) []sim.Config {
	cfgs := make([]sim.Config, len(three))
	for i, s := range three {
		cfgs[i] = schemeConfig(s, mutate)
	}
	return cfgs
}

// parallel times a plan-building and a plan-cached segment-parallel
// replay of the workload's first trace on every host CPU.
func (l *layerRun) parallel(ctx context.Context) error {
	rec := l.traces[0]
	cfgs := threeConfigs(nil)
	sess := stats.NewSession(rec.tr)
	opt := stats.ParallelOptions{Workers: l.cfg.nproc}
	var err error
	plan := l.tr.timed("stats.Session.ReplayAllParallel plan "+rec.bench, func() {
		_, err = sess.ReplayAllParallel(ctx, cfgs, rec.tr.Cap, opt)
	})
	if err != nil {
		return err
	}
	run := l.tr.timed("stats.Session.ReplayAllParallel run "+rec.bench, func() {
		_, err = sess.ReplayAllParallel(ctx, cfgs, rec.tr.Cap, opt)
	})
	if err != nil {
		return err
	}
	l.tr.begin("allocs stats.Session.ReplayAllParallel run " + rec.bench)
	al := measureAllocs(3, func() { _, err = sess.ReplayAllParallel(ctx, cfgs, rec.tr.Cap, opt) })
	l.tr.end()
	if err != nil {
		return err
	}
	l.set("stats.parallel.plan_ms", "ms", ms(plan))
	l.set("stats.parallel.run_ms", "ms", ms(run))
	l.set("stats.parallel.bytes_per_run", "B/run", float64(al.bytes))
	l.set("stats.parallel.allocs_per_run", "allocs/run", float64(al.objects))
	return nil
}

// predictors drives the second-level predictors with the branch and
// compare stream of the workload's first trace: Predict then
// Train/Update, one op per event.
func (l *layerRun) predictors(ctx context.Context) error {
	rec := l.traces[0]
	type br struct {
		pc    uint64
		taken bool
	}
	type cmp struct {
		pc         uint64
		val1, val2 bool
	}
	var brs []br
	var cmps []cmp
	c := rec.tr.EventCursor()
	var ev trace.Event
	for c.Next(&ev) {
		switch ev.Kind {
		case trace.EvCondBr:
			brs = append(brs, br{pipeline.InstAddr(ev.PC), ev.Taken})
		case trace.EvCompare:
			cmps = append(cmps, cmp{pipeline.InstAddr(ev.PC), ev.Out.Val1, ev.Out.Val2})
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	perc := predictor.NewPerceptronBudget(cfg.L2PredBytes, cfg.L2PredGHRBits, cfg.L2PredLHRBits)
	lht := predictor.NewLocalHistoryTable(cfg.L2PredLHTBits, cfg.L2PredLHRBits)
	var ghr uint64
	d := l.tr.timed("predictor.Perceptron "+rec.bench, func() {
		for _, b := range brs {
			lhr := lht.Get(b.pc)
			out := perc.Predict(b.pc, ghr, lhr)
			perc.Train(b.pc, ghr, lhr, b.taken, out)
			lht.Push(b.pc, b.taken)
			ghr = ghr<<1 | bit(b.taken)
		}
	})
	l.set("predictor.perceptron.ns_per_op", "ns/op", perUnit(d, uint64(len(brs))))

	pp := core.New(core.DefaultConfig())
	ghr = 0
	d = l.tr.timed("core.Predictor "+rec.bench, func() {
		for _, c := range cmps {
			lk := pp.Predict(c.pc, ghr)
			pp.Train(lk, c.val1, c.val2)
			ghr = ghr<<1 | bit(c.val1)
		}
	})
	l.set("core.ns_per_op", "ns/op", perUnit(d, uint64(len(cmps))))

	pa := peppa.New(peppa.DefaultConfig())
	prev := false
	d = l.tr.timed("peppa.Predictor "+rec.bench, func() {
		for _, b := range brs {
			lk := pa.Predict(b.pc, prev)
			pa.Update(lk, b.taken)
			prev = b.taken
		}
	})
	l.set("peppa.ns_per_op", "ns/op", perUnit(d, uint64(len(brs))))
	return nil
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pipelines times pipeline.New + Run for each scheme on the workload's
// first if-converted binary at the pipeline budget.
func (l *layerRun) pipelines(ctx context.Context) error {
	b := l.bins[0]
	var al allocs
	var instrs uint64
	var gc, cpu float64
	gc0, cpu0 := gcCPU()
	for i, cfg := range threeConfigs(nil) {
		var st sim.Stats
		var err error
		d := l.tr.timed(fmt.Sprintf("pipeline %s %s", b.spec.Name, three[i]), func() {
			st, err = runPipeline(ctx, cfg, b.conv, l.cfg.budgets.Pipeline)
		})
		if err != nil {
			return err
		}
		gc1, cpu1 := gcCPU()
		gc += gc1 - gc0
		cpu += cpu1 - cpu0
		l.tr.begin(fmt.Sprintf("allocs pipeline %s %s", b.spec.Name, three[i]))
		al.add(measureAllocs(2, func() { _, err = runPipeline(ctx, cfg, b.conv, l.cfg.budgets.Pipeline) }))
		l.tr.end()
		if err != nil {
			return err
		}
		gc0, cpu0 = gcCPU()
		instrs += st.Committed
		l.set("pipeline."+three[i]+".ns_per_instr", "ns/instr", perUnit(d, st.Committed))
	}
	l.set("pipeline.bytes_per_instr", "B/instr", float64(al.bytes)/float64(instrs))
	l.set("pipeline.allocs_per_instr", "allocs/instr", float64(al.objects)/float64(instrs))
	l.set("pipeline.gc_cpu_frac", "ratio", gc/cpu)
	return nil
}

// runPipeline is one pipeline cell through direct calls.
func runPipeline(ctx context.Context, cfg sim.Config, prog *program.Program, commits uint64) (sim.Stats, error) {
	pl, err := pipeline.New(cfg, prog)
	if err != nil {
		return sim.Stats{}, err
	}
	if err := pl.Run(commits); err != nil {
		return sim.Stats{}, err
	}
	return pl.Stats, ctx.Err()
}

// memo runs the sweep-warm sweep over the workload's first benchmark at
// runner parallelism nproc and reports the carryover memo's hit ratio
// from the process counters.
func (l *layerRun) memo(ctx context.Context, st state) error {
	p := st.base()
	wl, err := p.wl.Subset(l.bins[0].spec.Name)
	if err != nil {
		return err
	}
	sw := &sweepWarm{prepared: *p}
	before := sim.ProcessMetrics()
	l.tr.begin("sim.Sweep warm " + l.bins[0].spec.Name)
	_, err = sw.runSweep(ctx, wl, l.cfg.nproc)
	l.tr.end()
	if err != nil {
		return err
	}
	after := sim.ProcessMetrics()
	hits := after.CounterValue("sweep.warmstart.hits") - before.CounterValue("sweep.warmstart.hits")
	misses := after.CounterValue("sweep.warmstart.misses") - before.CounterValue("sweep.warmstart.misses")
	l.set("sim.sweep.memo_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func perUnit(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
