package sim

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// ReplaySession pins one program's recorded trace in memory for
// repeated replay — the benchmark-harness and sweep-service path, as
// opposed to the one-shot SimulateProgram/SimulateProgramSchemes
// calls. The trace is recorded (or loaded from the disk cache) once at
// construction; every Replay call then reuses the same decode buffers
// and, when ReplayWorkers > 1, the same cached parallel-replay plan:
// the first parallel Replay runs the serial build pass that captures
// engine checkpoints (returning that pass's own exact statistics), and
// subsequent calls with the same schemes and budget replay checkpointed
// segments concurrently, bit-identical to serial replay.
//
// A ReplaySession is not safe for concurrent use; give each goroutine
// its own.
type ReplaySession struct {
	run     ProgramRun
	outcome string // trace provenance ("hit" or "record") for manifests
	sess    *stats.Session
}

// NewReplaySession records (or loads) the program's trace and wraps it
// for repeated replay. r.Scheme is ignored — schemes are chosen per
// Replay call — and r.Mode must be ModeTrace or zero.
func NewReplaySession(ctx context.Context, r ProgramRun) (*ReplaySession, error) {
	if r.Program == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	if r.Mode != 0 && r.Mode != ModeTrace {
		return nil, fmt.Errorf("sim: replay sessions are trace-mode only, got %v", r.Mode)
	}
	r.Mode = ModeTrace
	if r.ReplayWorkers < 0 {
		return nil, fmt.Errorf("sim: replay parallelism %d < 0", r.ReplayWorkers)
	}
	tr, outcome, err := recordProgramTrace(ctx, r)
	if err != nil {
		return nil, err
	}
	return &ReplaySession{run: r, outcome: outcome, sess: stats.NewSession(tr)}, nil
}

// Steps returns the number of committed instructions the session's
// recorded trace covers.
func (s *ReplaySession) Steps() uint64 { return s.sess.Trace().Steps }

// Replay runs the session's trace through every named scheme — in one
// serial lockstep pass, or as parallel checkpointed segments when the
// session's ReplayWorkers is > 1 — and returns results in scheme
// order, each bit-identical to a one-shot SimulateProgram of that
// scheme.
func (s *ReplaySession) Replay(ctx context.Context, schemes ...string) ([]ProgramResult, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("sim: no schemes given")
	}
	return replaySchemeGroup(ctx, s.run, s.sess, s.outcome, schemes)
}
