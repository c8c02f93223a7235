package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/sim"
)

// The reproduce functions re-run the cells of a workload's sample 0
// through direct layer calls on the traced run's own binaries and
// traces. Their summed wall time, against the façade sample's, gives
// sim.residual_frac; their digests must equal the façade's.

func reproduceFiguresPipeline(ctx context.Context, l *layerRun, st state) ([]cell, time.Duration, error) {
	fig, pair := st.(*figuresPipeline).cellsOf(0)
	var cells []cell
	var sum time.Duration
	for _, name := range pair {
		prog := l.bin(name).prog(fig.converted)
		for _, scheme := range fig.schemes {
			var s sim.Stats
			var err error
			sum += l.tr.timed(fmt.Sprintf("pipeline %s %s", name, scheme), func() {
				s, err = runPipeline(ctx, schemeConfig(scheme, fig.mutate), prog, l.cfg.budgets.Pipeline)
			})
			cells = append(cells, cell{key: fig.tag + "/" + name + "/" + scheme, stats: s, err: err})
		}
	}
	return cells, sum, nil
}

// loadSession is the provider's half of a trace-mode cell group: load
// the stored trace and open a replay session on it.
func (l *layerRun) loadSession(name string, converted bool) (*stats.Session, time.Duration, error) {
	rec := l.find(name, converted)
	if rec == nil {
		return nil, 0, fmt.Errorf("no recorded trace for %s converted=%v", name, converted)
	}
	var t *trace.Trace
	var err error
	d := l.tr.timed("trace.Load "+name, func() { t, err = trace.Load(l.dir, rec.key) })
	if err == nil && t == nil {
		err = fmt.Errorf("trace.Load %s: cache miss", name)
	}
	if err != nil {
		return nil, 0, err
	}
	return stats.NewSession(t), d, nil
}

// replayGroup replays one trace-mode cell group: one single-pass
// replay of the schemes over the session's trace.
func (l *layerRun) replayGroup(ctx context.Context, sess *stats.Session, label string, schemes []string, mutate func(*sim.Config), commits uint64) ([]sim.Stats, time.Duration, error) {
	cfgs := make([]sim.Config, len(schemes))
	for i, s := range schemes {
		cfgs[i] = schemeConfig(s, mutate)
	}
	var sts []sim.Stats
	var err error
	d := l.tr.timed("stats.Session.ReplayAll "+label, func() { sts, err = sess.ReplayAll(ctx, cfgs, commits) })
	return sts, d, err
}

func reproduceFiguresTrace(ctx context.Context, l *layerRun, _ state) ([]cell, time.Duration, error) {
	f := traceFigures[0] // sample 0
	var cells []cell
	var sum time.Duration
	for _, b := range l.bins {
		name := b.spec.Name
		sess, d, err := l.loadSession(name, f.converted)
		if err != nil {
			return nil, 0, err
		}
		sts, rd, err := l.replayGroup(ctx, sess, f.tag+" "+name, f.schemes, f.mutate, l.cfg.budgets.Trace)
		if err != nil {
			return nil, 0, err
		}
		sum += d + rd
		for i, s := range f.schemes {
			cells = append(cells, cell{key: f.tag + "/" + name + "/" + s, stats: sts[i]})
		}
	}
	return cells, sum, nil
}

// reproduceSweepWarm replays each benchmark once per pred.bytes value,
// as a one-worker warm sweep does, and prices every other point from
// those statistics.
func reproduceSweepWarm(ctx context.Context, l *layerRun, st state) ([]cell, time.Duration, error) {
	s := st.(*sweepWarm)
	base, err := sim.New(append(s.traceOpts(l.cfg.budgets.Trace), sim.WithWorkload(s.wl), sim.WithSchemes(three...))...)
	if err != nil {
		return nil, 0, err
	}
	var opts []sim.SweepOption
	for _, ax := range sweepAxes {
		opts = append(opts, sim.WithAxis(ax.name, ax.values...))
	}
	sw, err := sim.NewSweep(base, opts...)
	if err != nil {
		return nil, 0, err
	}
	var cells []cell
	var sum time.Duration
	for _, b := range l.bins {
		name := b.spec.Name
		sess, d, err := l.loadSession(name, true)
		if err != nil {
			return nil, 0, err
		}
		sum += d
		byBytes := map[string][]sim.Stats{}
		for _, v := range sweepAxes[0].values {
			bytes := v.(int)
			sts, d, err := l.replayGroup(ctx, sess, fmt.Sprintf("%s pred.bytes=%d", name, bytes), three,
				func(c *sim.Config) { c.L2PredBytes = bytes }, l.cfg.budgets.Trace)
			if err != nil {
				return nil, 0, err
			}
			sum += d
			byBytes[fmt.Sprint(v)] = sts
		}
		for _, pt := range sw.Points() {
			v, _ := pt.Value(sweepAxes[0].name)
			for i, s := range three {
				cells = append(cells, cell{key: pt.String() + "/" + name + "/" + s, stats: byBytes[v][i]})
			}
		}
	}
	return cells, sum, nil
}

// reproduceReplayParallel builds the plan untimed, as the sweep's
// warm-up point does, then replays one sample's worth of points.
func reproduceReplayParallel(ctx context.Context, l *layerRun, _ state) ([]cell, time.Duration, error) {
	rec := l.traces[0]
	sess := stats.NewSession(rec.tr)
	cfgs := threeConfigs(nil)
	opt := stats.ParallelOptions{Workers: l.cfg.nproc}
	if _, err := sess.ReplayAllParallel(ctx, cfgs, l.cfg.budgets.Long, opt); err != nil {
		return nil, 0, err
	}
	var cells []cell
	var sum time.Duration
	for p := 0; p < replayPointsPerSample; p++ {
		var sts []sim.Stats
		var err error
		sum += l.tr.timed("stats.Session.ReplayAllParallel "+rec.bench, func() {
			sts, err = sess.ReplayAllParallel(ctx, cfgs, l.cfg.budgets.Long, opt)
		})
		if err != nil {
			return nil, 0, err
		}
		for i, s := range three {
			cells = append(cells, cell{key: "/" + rec.bench + "/" + s, stats: sts[i]})
		}
	}
	return cells, sum, nil
}
