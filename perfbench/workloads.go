package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/sim"
)

// state is one set-up workload, ready to take samples.
type state interface {
	// sample runs the i-th sample of the workload's sample sequence.
	sample(ctx context.Context, i int) (sampleResult, error)
	// cycle is the length of the sample sequence: a timed phase ends
	// only after whole cycles, so every run weighs the same cells.
	cycle() int
	// expect returns digests every cell must match at any seed (nil
	// when the workload has no in-process reference).
	expect(ctx context.Context) (map[string]string, error)
	// stop ends any work the state runs in the background.
	stop()
	// close stops the state and removes its private trace directory.
	close()
	base() *prepared
}

// workload is one benchmark workload. Why each exists is in
// perfbench/README.md.
type workload struct {
	name string
	// benches are the suite entries it prepares (nil = all 22), and
	// variants and commits the traces the traced run records for them.
	benches  []string
	variants []bool // false = plain binaries, true = if-converted
	commits  func(budgets) uint64
	setup    func(ctx context.Context, cfg runConfig, dir string, par int) (state, error)
	// reproduce re-runs sample 0's cells through direct layer calls and
	// returns them with the summed wall time of those calls.
	reproduce func(ctx context.Context, l *layerRun, st state) ([]cell, time.Duration, error)
}

func workloads() []*workload {
	return []*workload{
		{name: "figures-pipeline", benches: ablationBenches, variants: []bool{false, true}, commits: pipelineBudget,
			setup: setupFiguresPipeline, reproduce: reproduceFiguresPipeline},
		{name: "figures-trace", variants: []bool{false, true}, commits: traceBudget,
			setup: setupFiguresTrace, reproduce: reproduceFiguresTrace},
		{name: "sweep-warm", benches: sweepBenches, variants: []bool{true}, commits: traceBudget,
			setup: setupSweepWarm, reproduce: reproduceSweepWarm},
		{name: "replay-parallel", benches: []string{"vpr"}, variants: []bool{false}, commits: longBudget,
			setup: setupReplayParallel, reproduce: reproduceReplayParallel},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

var (
	two   = []string{"conventional", "predpred"}
	three = []string{"peppa", "conventional", "predpred"}
	// ablationBenches is cmd/experiments' ablation subset.
	ablationBenches = []string{"gzip", "vpr", "twolf", "parser", "swim", "mesa"}
	// sweepBenches are integer benchmarks whose seed-shifted specs the
	// façade accepts (see seededSpecs).
	sweepBenches = []string{"gzip", "vpr", "gcc", "parser", "vortex", "bzip2"}
)

const splitPVT = "predpred-splitpvt"

// schemeBases mirrors the façade's scheme registry for the direct layer
// calls of the traced run; a drift shows as a digest mismatch there.
var schemeBases = map[string]func(*sim.Config){
	"conventional": func(c *sim.Config) { *c = c.WithScheme(config.SchemeConventional) },
	"predpred":     func(c *sim.Config) { *c = c.WithScheme(config.SchemePredicate) },
	"peppa":        func(c *sim.Config) { *c = c.WithScheme(config.SchemePEPPA) },
	splitPVT: func(c *sim.Config) {
		*c = c.WithScheme(config.SchemePredicate)
		c.SplitPVT = true
	},
}

func init() {
	sim.MustRegisterScheme(sim.SchemeSpec{
		Name: splitPVT, Base: "predpred",
		Doc:       "predicate predictor with a statically split PVT (§3.3 ablation)",
		Configure: func(c *sim.Config) { c.SplitPVT = true },
	})
}

func schemeConfig(name string, mutate func(*sim.Config)) sim.Config {
	c := sim.DefaultConfig()
	schemeBases[name](&c)
	if mutate != nil {
		mutate(&c)
	}
	return c
}

func idealize(c *sim.Config)      { c.IdealNoAlias, c.IdealPerfectGHR = true, true }
func disableRepair(c *sim.Config) { c.DisableGHRRepair = true }

// seededSpecs resolves suite entries and offsets each spec's Seed by
// the workload seed; seed 0 is the paper suite unchanged. sim.PrepareSpecs
// exempts only unmodified built-ins from the site-allocation guard, and
// twelve built-ins oversubscribe their site budget by design, so a
// seed-shifted copy of those would be rejected: they keep the suite seed.
func seededSpecs(seed int64, entries ...string) ([]sim.BenchSpec, error) {
	specs, err := sim.SuiteSpecs(entries...)
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		s.Seed += seed
		if bench.CheckSiteAllocation(s) == nil {
			specs[i] = s
		}
	}
	return specs, nil
}

// figure is one benchmark × scheme matrix of cmd/experiments.
type figure struct {
	tag       string
	schemes   []string
	converted bool
	mutate    func(*sim.Config)
	subset    []string // nil = every prepared benchmark
}

// traceFigures is the `experiments -all -mode trace` figure set.
var traceFigures = []figure{
	{tag: "fig5", schemes: two},
	{tag: "fig5ideal", schemes: two, mutate: idealize},
	{tag: "fig6a+fig6b", schemes: three, converted: true},
	{tag: "fig6ideal", schemes: two, converted: true, mutate: idealize},
	{tag: "ablate-pvt", schemes: []string{"predpred", splitPVT}, converted: true, subset: ablationBenches},
	{tag: "ablate-ghr-repaired", schemes: []string{"predpred"}, converted: true, subset: ablationBenches},
	{tag: "ablate-ghr-corrupted", schemes: []string{"predpred"}, converted: true, mutate: disableRepair, subset: ablationBenches},
}

// runExperiment runs one façade experiment and returns its cells keyed
// tag/bench/scheme.
func runExperiment(ctx context.Context, opts ...sim.Option) ([]cell, error) {
	exp, err := sim.New(opts...)
	if err != nil {
		return nil, err
	}
	rs, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(rs))
	for i, r := range rs {
		cells[i] = cell{key: r.Tag + "/" + r.Bench + "/" + r.Scheme, stats: r.Stats, err: r.Err}
	}
	return cells, nil
}

// prepared is the part of every state that set-up builds: the prepared
// binaries and the private trace directory.
type prepared struct {
	cfg runConfig
	dir string
	wl  *sim.Workload
	par int
}

func prepare(cfg runConfig, dir string, par int, entries ...string) (prepared, error) {
	specs, err := seededSpecs(cfg.seed, entries...)
	if err != nil {
		return prepared{}, err
	}
	wl, err := sim.PrepareSpecs(specs, cfg.budgets.Profile)
	if err != nil {
		return prepared{}, err
	}
	return prepared{cfg: cfg, dir: dir, wl: wl, par: par}, nil
}

func pipelineBudget(b budgets) uint64 { return b.Pipeline }
func traceBudget(b budgets) uint64    { return b.Trace }
func longBudget(b budgets) uint64     { return b.Long }

func (p *prepared) base() *prepared                                   { return p }
func (p *prepared) stop()                                             {}
func (p *prepared) close()                                            { os.RemoveAll(p.dir) }
func (p *prepared) cycle() int                                        { return 1 }
func (p *prepared) expect(context.Context) (map[string]string, error) { return nil, nil }

// traceOpts are the options every trace-mode experiment of a state
// shares.
func (p *prepared) traceOpts(commits uint64) []sim.Option {
	return []sim.Option{
		sim.WithMode(sim.ModeTrace), sim.WithTraceDir(p.dir),
		sim.WithCommits(commits), sim.WithParallelism(p.par),
	}
}

// record fills the private trace directory with the plain and/or
// if-converted traces of every prepared benchmark.
func (p *prepared) record(ctx context.Context, commits uint64, variants ...bool) error {
	for _, conv := range variants {
		cells, err := runExperiment(ctx, append(p.traceOpts(commits),
			sim.WithWorkload(p.wl), sim.WithSchemes("conventional"), sim.WithIfConversion(conv))...)
		if err != nil {
			return err
		}
		for _, c := range cells {
			if c.err != nil {
				return fmt.Errorf("record %s: %w", c.key, c.err)
			}
		}
	}
	return nil
}

// --- figures-pipeline -------------------------------------------------

// figuresPipeline runs the Fig 5 and Fig 6a matrices in pipeline mode
// on cmd/experiments' ablation subset. Over the whole suite one pass
// takes ~14 s on a 2-CPU host, one sample per run; over the subset a
// pass takes ~3 s. A sample is one figure over one pair of benchmarks
// (4 or 6 cells: an even split over two workers); a cycle is all six.
type figuresPipeline struct {
	prepared
	pairs [][]string
}

var pipelineFigures = []figure{
	{tag: "fig5", schemes: two},
	{tag: "fig6a", schemes: three, converted: true},
}

func setupFiguresPipeline(ctx context.Context, cfg runConfig, dir string, par int) (state, error) {
	p, err := prepare(cfg, dir, par, ablationBenches...)
	if err != nil {
		return nil, err
	}
	names := p.wl.Names()
	st := &figuresPipeline{prepared: p}
	for i := 0; i+1 < len(names); i += 2 {
		st.pairs = append(st.pairs, names[i:i+2])
	}
	return st, nil
}

func (s *figuresPipeline) cycle() int { return len(s.pairs) * len(pipelineFigures) }

func (s *figuresPipeline) cellsOf(i int) (figure, []string) {
	i %= s.cycle()
	return pipelineFigures[i%len(pipelineFigures)], s.pairs[i/len(pipelineFigures)]
}

func (s *figuresPipeline) sample(ctx context.Context, i int) (sampleResult, error) {
	fig, pair := s.cellsOf(i)
	wl, err := s.wl.Subset(pair...)
	if err != nil {
		return sampleResult{}, err
	}
	return timeSample(func() ([]cell, error) {
		return runExperiment(ctx, sim.WithWorkload(wl), sim.WithTag(fig.tag),
			sim.WithSchemes(fig.schemes...), sim.WithIfConversion(fig.converted),
			sim.WithCommits(s.cfg.budgets.Pipeline), sim.WithMode(sim.ModePipeline),
			sim.WithParallelism(s.par))
	})
}

// --- figures-trace ----------------------------------------------------

// figuresTrace runs the full trace-mode figure set, loading every trace
// from the private directory. A sample is one figure, a cycle all seven:
// the whole set takes ~1.2 s on a 2-CPU host, and shorter samples let
// the per-figure medians drop a neighbour's bursts.
type figuresTrace struct {
	prepared
	subsets []*sim.Workload // per traceFigures entry
}

func setupFiguresTrace(ctx context.Context, cfg runConfig, dir string, par int) (state, error) {
	p, err := prepare(cfg, dir, par)
	if err != nil {
		return nil, err
	}
	if err := p.record(ctx, cfg.budgets.Trace, false, true); err != nil {
		return nil, err
	}
	st := &figuresTrace{prepared: p}
	for _, f := range traceFigures {
		wl := p.wl
		if f.subset != nil {
			if wl, err = p.wl.Subset(f.subset...); err != nil {
				return nil, err
			}
		}
		st.subsets = append(st.subsets, wl)
	}
	return st, nil
}

func (s *figuresTrace) cycle() int { return len(traceFigures) }

func (s *figuresTrace) sample(ctx context.Context, i int) (sampleResult, error) {
	i %= len(traceFigures)
	f := traceFigures[i]
	return timeSample(func() ([]cell, error) {
		return runExperiment(ctx, append(s.traceOpts(s.cfg.budgets.Trace),
			sim.WithWorkload(s.subsets[i]), sim.WithTag(f.tag), sim.WithSchemes(f.schemes...),
			sim.WithIfConversion(f.converted), sim.WithConfigMutator(f.mutate))...)
	})
}

// --- sweep-warm -------------------------------------------------------

// sweepAxes are one replay-visible axis and two carryover axes: most
// of a warm sweep's cells are priced from the carryover memo.
var sweepAxes = []struct {
	name   string
	values []any
}{
	{"pred.bytes", []any{32768, 65536, 151552, 262144}},
	{"mispredict.penalty", []any{5, 10, 15, 20}},
	{"rob.entries", []any{64, 128, 256, 512}},
}

type sweepWarm struct{ prepared }

func setupSweepWarm(ctx context.Context, cfg runConfig, dir string, par int) (state, error) {
	p, err := prepare(cfg, dir, par, sweepBenches...)
	if err != nil {
		return nil, err
	}
	if err := p.record(ctx, cfg.budgets.Trace, true); err != nil {
		return nil, err
	}
	return &sweepWarm{prepared: p}, nil
}

// runSweep runs one warm-started sweep over wl and returns its cells
// keyed point/bench/scheme.
func (s *sweepWarm) runSweep(ctx context.Context, wl *sim.Workload, par int) ([]cell, error) {
	base, err := sim.New(append(s.traceOpts(s.cfg.budgets.Trace),
		sim.WithWorkload(wl), sim.WithSchemes(three...), sim.WithIfConversion(true),
		sim.WithParallelism(par))...)
	if err != nil {
		return nil, err
	}
	opts := []sim.SweepOption{sim.WithWarmStart(true)}
	for _, ax := range sweepAxes {
		opts = append(opts, sim.WithAxis(ax.name, ax.values...))
	}
	sw, err := sim.NewSweep(base, opts...)
	if err != nil {
		return nil, err
	}
	rs, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, pr := range rs {
		for _, r := range pr.Results {
			cells = append(cells, cell{key: pr.Point.String() + "/" + r.Bench + "/" + r.Scheme, stats: r.Stats, err: r.Err})
		}
	}
	return cells, nil
}

func (s *sweepWarm) sample(ctx context.Context, _ int) (sampleResult, error) {
	return timeSample(func() ([]cell, error) { return s.runSweep(ctx, s.wl, s.par) })
}

// --- replay-parallel --------------------------------------------------

// replayParallel replays one long vpr trace through all three schemes
// with segment-parallel replay on every host CPU. A plain experiment
// rebuilds the replay plan on each Start (its replay sessions are
// per-Start), so the samples are runs of points of one long sweep over
// a no-op axis: its single worker keeps the session, and every point
// after the first replays the cached plan on the segment workers.
type replayParallel struct {
	prepared
	cancel  context.CancelFunc
	runner  *sim.SweepRunner
	mu      sync.Mutex
	started mark
	doneAt  map[int]mark // point -> completion of its last cell
	cellsAt map[int]int
	next    int
}

const (
	// replayPoints bounds the long sweep; the timed phase stops long
	// before.
	replayPoints = 1 << 14
	// replayPointsPerSample makes a sample a few hundred milliseconds:
	// one point takes ~70 ms on a 2-CPU host, below the resolution of
	// the steal clock.
	replayPointsPerSample = 5
)

func (s *replayParallel) options(workers int) []sim.Option {
	return append(s.traceOpts(s.cfg.budgets.Long),
		sim.WithWorkload(s.wl), sim.WithSchemes(three...), sim.WithReplayParallelism(workers))
}

func setupReplayParallel(ctx context.Context, cfg runConfig, dir string, par int) (state, error) {
	p, err := prepare(cfg, dir, par, "vpr")
	if err != nil {
		return nil, err
	}
	s := &replayParallel{prepared: p}
	// The first run records the trace and builds the segment plan.
	cells, err := runExperiment(ctx, s.options(cfg.nproc)...)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, c.err)
		}
	}
	return s, nil
}

// expect is the serial replay of the same cells, which parallel replay
// must equal at every seed.
func (s *replayParallel) expect(ctx context.Context) (map[string]string, error) {
	cells, err := runExperiment(ctx, s.options(0)...)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("serial replay %s: %w", c.key, c.err)
		}
		out[c.key] = digest(c.stats)
	}
	return out, nil
}

func (s *replayParallel) start(ctx context.Context) error {
	s.doneAt, s.cellsAt = map[int]mark{}, map[int]int{}
	progress := sim.WithProgress(func(p sim.Progress) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cellsAt[p.Point]++
		if s.cellsAt[p.Point] == len(three) {
			s.doneAt[p.Point] = now()
		}
	})
	base, err := sim.New(append(s.options(s.cfg.nproc), sim.WithParallelism(1), progress)...)
	if err != nil {
		return err
	}
	reps := make([]any, replayPoints)
	for i := range reps {
		reps[i] = i
	}
	sw, err := sim.NewSweep(base, sim.WithMutatorAxis("repeat", func(*sim.Config, string) error { return nil }, reps...))
	if err != nil {
		return err
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.started = now()
	s.runner, err = sw.Start(ctx)
	return err
}

// sample returns the next replayPointsPerSample points; the first
// sample, the warm-up, is the plan-building point alone.
func (s *replayParallel) sample(ctx context.Context, _ int) (sampleResult, error) {
	if s.runner == nil {
		if err := s.start(ctx); err != nil {
			return sampleResult{}, err
		}
	}
	first, n := s.next, replayPointsPerSample
	if first == 0 {
		n = 1
	}
	var cells []cell
	for ; n > 0; n-- {
		pr, ok := <-s.runner.Results()
		if !ok {
			return sampleResult{}, fmt.Errorf("replay sweep ended early: %v", s.runner.Wait())
		}
		if pr.Point.Index != s.next {
			return sampleResult{}, fmt.Errorf("replay sweep delivered point %d, want %d", pr.Point.Index, s.next)
		}
		s.next++
		for _, r := range pr.Results {
			cells = append(cells, cell{key: r.Tag + "/" + r.Bench + "/" + r.Scheme, stats: r.Stats, err: r.Err})
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	from, to := s.started, s.doneAt[s.next-1]
	if first > 0 {
		from = s.doneAt[first-1]
	}
	return sampleResult{cells: cells, wall: to.t.Sub(from.t), span: from.until(to)}, nil
}

func (s *replayParallel) stop() {
	if s.runner != nil {
		s.cancel()
		for range s.runner.Results() {
		}
		_ = s.runner.Wait() // context.Canceled: the timed phase is over
		s.runner = nil
	}
}

func (s *replayParallel) close() {
	s.stop()
	s.prepared.close()
}
