package stats

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Parallel segment replay: a serial build pass records checkpoints —
// deep snapshots of the frontend and every scheme engine (snapshot.go)
// plus the cursor's byte offset — at EvMarker boundaries and every
// SegmentInstrs committed instructions (quantized to decode-batch
// boundaries). The trace is then tiled into segments between
// checkpoints and replayed on a bounded worker pool; each worker
// restores its segment's checkpoint, re-runs a configurable warm-up
// window with statistics discarded, and scores exactly the positions
// between its boundary and the next. Because checkpoints are exact and
// the engine's evolution is batch-boundary-independent, the merged
// per-scheme statistics are bit-identical to a serial replay; see
// DESIGN.md ("Parallel segment replay") for the argument.

// defaultSegments is the auto-stride target: enough segments that a
// worker pool up to ~16 wide stays busy under dynamic scheduling,
// few enough that checkpoint memory stays modest.
const defaultSegments = 32

// minSegmentInstrs floors the auto stride so short traces do not
// shatter into segments smaller than the per-segment fixed costs
// (engine build + snapshot restore).
const minSegmentInstrs = 16384

// ParallelOptions configures checkpoint-based parallel replay.
type ParallelOptions struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS. The
	// worker count affects scheduling only, never results.
	Workers int
	// SegmentInstrs is the checkpoint stride in committed
	// instructions; 0 picks a stride targeting defaultSegments
	// segments. Checkpoints also land at EvMarker boundaries
	// regardless of stride.
	SegmentInstrs uint64
	// WarmupInstrs is re-run from each segment's checkpoint with
	// statistics discarded before scoring starts. Snapshots are
	// exact, so warm-up is not needed for correctness — it is the
	// knob that keeps results bit-identical even if a future
	// component snapshot becomes lossy, and it widens the overlap
	// the equality tests exercise.
	WarmupInstrs uint64
}

func (o ParallelOptions) resolveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// resolveStride picks the checkpoint stride: the explicit option, or
// an automatic stride dividing the effective replay length (commit
// budget, or the recorded trace length when unbudgeted) into
// defaultSegments segments. Deliberately independent of the worker
// count so a Session's cached plan stays valid across worker sweeps.
func resolveStride(opt ParallelOptions, commits uint64, tr *trace.Trace) uint64 {
	if opt.SegmentInstrs > 0 {
		return opt.SegmentInstrs
	}
	effective := commits
	if effective == 0 || (tr.Steps > 0 && tr.Steps < effective) {
		effective = tr.Steps
	}
	stride := effective / defaultSegments
	if stride < minSegmentInstrs {
		stride = minSegmentInstrs
	}
	return stride
}

// checkpoint is one restart point of the build pass: the cursor's
// byte offset at a decode-batch boundary, the committed-instruction
// count there, and deep snapshots of the frontend and every engine.
type checkpoint struct {
	offset    int
	committed uint64
	fe        frontend
	engines   []*engineState
}

// planBuilder is the build pass's capture hook: run (replay.go) calls
// markerSeen from the admission loop and maybeCapture after each
// decoded batch, so checkpoints land at batch boundaries — on the
// first boundary after an EvMarker, and every stride committed
// instructions otherwise.
type planBuilder struct {
	stride uint64
	next   uint64 // committed count at which the next stride capture is due
	saw    bool   // an EvMarker was admitted since the last capture
	cps    []checkpoint
}

func newPlanBuilder(stride uint64) *planBuilder {
	return &planBuilder{stride: stride, next: stride}
}

func (b *planBuilder) markerSeen() { b.saw = true }

// maybeCapture snapshots the replay state if a capture is due. It runs
// between batches, so cur is at an event boundary and fe/engines are
// consistent with everything admitted so far.
func (b *planBuilder) maybeCapture(cur *trace.Cursor, committed uint64, fe *frontend, engines []*schemeEngine) {
	if committed == 0 || (!b.saw && committed < b.next) {
		return
	}
	b.saw = false
	b.next = committed + b.stride
	if n := len(b.cps); n > 0 && b.cps[n-1].committed == committed {
		return
	}
	states := make([]*engineState, len(engines))
	for i, e := range engines {
		states[i] = e.snapshot()
	}
	b.cps = append(b.cps, checkpoint{
		offset:    cur.Offset(),
		committed: committed,
		fe:        fe.snapshot(),
		engines:   states,
	})
}

// replayPlan is an immutable parallel-replay plan for one (trace,
// configurations, budget) triple: the build pass's checkpoints plus
// its serial statistics. After buildPlan returns, the plan is only
// read, so any number of segment workers (and plan runs) may share it.
type replayPlan struct {
	cfgs    []config.Config
	commits uint64
	stride  uint64
	warmup  uint64
	total   uint64 // final committed count of the build pass
	halted  bool
	cps     []checkpoint
	sts     []pipeline.Stats // the build pass's serial per-scheme statistics
}

// matches reports whether the plan can serve a replay request — the
// Session cache key.
func (p *replayPlan) matches(cfgs []config.Config, commits, stride, warmup uint64) bool {
	if len(cfgs) != len(p.cfgs) || commits != p.commits || stride != p.stride || warmup != p.warmup {
		return false
	}
	for i := range cfgs {
		if cfgs[i] != p.cfgs[i] {
			return false
		}
	}
	return true
}

// buildPlan runs the serial build pass with the capture hook armed.
// The pass is an ordinary serial replay — the hook only reads state
// between batches — so plan.sts are exact serial results.
func buildPlan(ctx context.Context, s *scratch, cfgs []config.Config, tr *trace.Trace, commits uint64, stride, warmup uint64) (*replayPlan, error) {
	hook := newPlanBuilder(stride)
	sts, err := s.replayHooked(ctx, cfgs, tr, commits, hook)
	if err != nil {
		return nil, err
	}
	p := &replayPlan{
		cfgs:    append([]config.Config(nil), cfgs...),
		commits: commits,
		stride:  stride,
		warmup:  warmup,
		cps:     hook.cps,
		sts:     sts,
	}
	if len(sts) > 0 {
		p.total = sts[0].Committed
		p.halted = sts[0].HaltSeen
	}
	return p, nil
}

// segment is one unit of parallel work: restore cp (nil = replay from
// the trace start), discard statistics through position scoreFrom,
// score positions (scoreFrom, scoreTo], stop (scoreTo = 0 runs to the
// budget/halt/end exactly like serial replay). A committed
// instruction's position is the committed count after it commits.
type segment struct {
	cp        *checkpoint
	scoreFrom uint64
	scoreTo   uint64
}

// segments tiles the replay into score intervals. Boundary k is
// checkpoint k's committed count plus the warm-up window, so each
// segment's warm-up region is exactly the tail of its predecessor's
// scored region — the "re-run from the previous checkpoint" overlap.
// Boundaries at or past the end of the replay are dropped; their work
// belongs to the final segment.
func (p *replayPlan) segments() []segment {
	segs := []segment{{}}
	for i := range p.cps {
		cp := &p.cps[i]
		bound := cp.committed + p.warmup
		if bound >= p.total {
			break
		}
		segs[len(segs)-1].scoreTo = bound
		segs = append(segs, segment{cp: cp, scoreFrom: bound})
	}
	return segs
}

// run replays the plan's segments on a bounded worker pool and merges
// the per-segment statistics in segment order. The merge is
// commutative (all merged fields are additive counters), so dynamic
// scheduling cannot perturb results; merging in a fixed order anyway
// keeps the path deterministic by inspection. Unlike serial replay,
// cancellation returns no partial statistics — segments complete out
// of order, so a partial merge would not correspond to any prefix.
func (p *replayPlan) run(ctx context.Context, tr *trace.Trace, workers int) ([]pipeline.Stats, error) {
	segs := p.segments()
	if workers > len(segs) {
		workers = len(segs)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([][]pipeline.Stats, len(segs))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s scratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(segs) || wctx.Err() != nil {
					return
				}
				sts, err := p.replaySegment(wctx, tr, &s, segs[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				results[i] = sts
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		// Workers stop silently when the caller's context dies; surface
		// the cancellation rather than merging incomplete results.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	merged := make([]pipeline.Stats, len(p.cfgs))
	for _, sts := range results {
		for i := range merged {
			addStats(&merged[i], &sts[i])
		}
	}
	for i := range merged {
		merged[i].Committed = p.total
		merged[i].HaltSeen = p.halted
	}
	return merged, nil
}

// replaySegment replays one segment with fresh engines: restore the
// checkpoint, mirror the serial admission loop (replay.go run) with
// two extra rules — statistics are zeroed when the first position past
// scoreFrom is admitted, and the segment stops once committed reaches
// scoreTo (the next event's position would belong to the successor).
func (p *replayPlan) replaySegment(ctx context.Context, tr *trace.Trace, s *scratch, seg segment) ([]pipeline.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	engines := make([]*schemeEngine, len(p.cfgs))
	for i, cfg := range p.cfgs {
		e, err := newSchemeEngine(cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	var fe frontend
	fe.predVal[isa.P0] = true
	fe.prevVal[isa.P0] = true
	var cur *trace.Cursor
	var committed uint64
	if seg.cp != nil {
		fe.restore(seg.cp.fe)
		committed = seg.cp.committed
		for i, e := range engines {
			e.restore(seg.cp.engines[i])
		}
		cur = tr.EventCursorAt(seg.cp.offset)
	} else {
		cur = tr.EventCursor()
	}
	if s.evs == nil {
		s.evs = make([]trace.Event, batchEvents)
		s.notes = make([]note, batchEvents)
	}
	commits := p.commits
	scored := false
	done := false
	for !done {
		nDec := cur.NextBatch(s.evs)
		if nDec == 0 {
			break
		}
		n := 0
		split := 0 // admitted events at positions <= scoreFrom (warm-up)
		for i := 0; i < nDec; i++ {
			ev := &s.evs[i]
			committed += ev.Gap
			if commits > 0 && committed >= commits {
				committed = commits
				done = true
				break
			}
			if seg.scoreTo > 0 && committed >= seg.scoreTo {
				// The gap crossed the boundary: the event at hand sits
				// past scoreTo and is the successor segment's to score.
				done = true
				break
			}
			if ev.Kind != trace.EvMarker {
				committed++
				fe.step = committed
				if ev.Kind == trace.EvHalt {
					done = true
					break
				}
				if n != i {
					s.evs[n] = *ev
				}
				fe.annotate(&s.evs[n], &s.notes[n])
				if committed <= seg.scoreFrom {
					split = n + 1
				}
				n++
			}
			if commits > 0 && committed >= commits {
				done = true
				break
			}
			if seg.scoreTo > 0 && committed >= seg.scoreTo {
				done = true
				break
			}
		}
		if scored {
			for _, e := range engines {
				e.applyBatch(s.evs[:n], s.notes[:n])
			}
		} else {
			if split > 0 {
				for _, e := range engines {
					e.applyBatch(s.evs[:split], s.notes[:split])
				}
			}
			if split < n {
				// First scored position: discard the checkpoint's and the
				// warm-up's accumulated counters, then score the rest.
				for _, e := range engines {
					e.st = pipeline.Stats{}
				}
				scored = true
				for _, e := range engines {
					e.applyBatch(s.evs[split:n], s.notes[split:n])
				}
			}
		}
		if err := ctx.Err(); err != nil && !done {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	if !scored {
		// Every admitted event was warm-up (an empty scored interval can
		// only arise from a degenerate plan, but stay exact regardless).
		for _, e := range engines {
			e.st = pipeline.Stats{}
		}
	}
	sts := make([]pipeline.Stats, len(engines))
	for i, e := range engines {
		sts[i] = e.st
	}
	return sts, nil
}

// addStats accumulates src's additive counters into dst. Committed and
// HaltSeen are whole-replay facts, not per-segment contributions; the
// merge loop overwrites them from the plan afterwards.
func addStats(dst, src *pipeline.Stats) {
	dst.Cycles += src.Cycles
	dst.Fetched += src.Fetched
	dst.Squashed += src.Squashed
	dst.CondBranches += src.CondBranches
	dst.BranchMispred += src.BranchMispred
	dst.TargetMispred += src.TargetMispred
	dst.EarlyResolved += src.EarlyResolved
	dst.EarlyResolvedHit += src.EarlyResolvedHit
	dst.OverrideFlushes += src.OverrideFlushes
	dst.ExecFlushes += src.ExecFlushes
	dst.PredFlushes += src.PredFlushes
	dst.Compares += src.Compares
	dst.PredPredictions += src.PredPredictions
	dst.PredMispredicts += src.PredMispredicts
	dst.Cancelled += src.Cancelled
	dst.Unguarded += src.Unguarded
	dst.SelectOps += src.SelectOps
	dst.ShadowCondBranches += src.ShadowCondBranches
	dst.ShadowMispred += src.ShadowMispred
	dst.LoadForwards += src.LoadForwards
}

// ReplayAllParallel is ReplayAll over checkpoint-based parallel
// segment replay: a serial build pass records checkpoints, then the
// segments replay on opt's worker pool and the merged statistics are
// returned — bit-identical to ReplayAll. Because the build pass is
// itself a full serial replay, a one-shot call does strictly more work
// than ReplayAll; the parallel payoff comes from replaying a cached
// plan (Session.ReplayAllParallel) or from this function's use as the
// equality oracle in tests. On cancellation no partial statistics are
// returned (segments complete out of order).
func ReplayAllParallel(ctx context.Context, cfgs []config.Config, tr *trace.Trace, commits uint64, opt ParallelOptions) ([]pipeline.Stats, error) {
	var s scratch
	plan, err := buildPlan(ctx, &s, cfgs, tr, commits, resolveStride(opt, commits, tr), opt.WarmupInstrs)
	if err != nil {
		return nil, err
	}
	return plan.run(ctx, tr, opt.resolveWorkers())
}
