package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/sim"
)

// budgets are the commit and profiling budgets of every workload. The
// defaults sit past the suite's array-init prologue (below ~30k commits
// every benchmark looks alike); the self-test shrinks them.
type budgets struct {
	Pipeline uint64 `json:"pipeline"` // figures-pipeline cells
	Trace    uint64 `json:"trace"`    // figures-trace and sweep-warm cells
	Long     uint64 `json:"long"`     // replay-parallel's long trace
	Profile  uint64 `json:"profile"`  // if-conversion profiling steps
}

func defaultBudgets() budgets {
	return budgets{Pipeline: 120000, Trace: 300000, Long: 1500000, Profile: 200000}
}

// runConfig is everything a workload run depends on besides the
// workload itself.
type runConfig struct {
	seed          int64
	seconds       float64
	budgets       budgets
	setupReps     int           // least set-ups per run; setup_s is their median
	minSetupPhase time.Duration // least time of all set-ups together
	out           string        // parent of the private trace directories
	ref           reference
	nproc         int // runner parallelism: one worker per host CPU, never more
}

// cell is one simulated benchmark × scheme × point result.
type cell struct {
	key   string
	stats sim.Stats
	err   error
}

// digest is the statistics a speed-up must not change.
func digest(st sim.Stats) string {
	return fmt.Sprintf("c%d y%d m%d p%d e%d", st.Committed, st.Cycles, st.BranchMispred, st.PredMispredicts, st.EarlyResolved)
}

// reference holds the default-seed digest of every cell, recorded at
// the budgets it names.
type reference struct {
	Budgets budgets                      `json:"budgets"`
	Cells   map[string]map[string]string `json:"cells"` // workload -> cell key -> digest
}

func parseReference(data []byte) (reference, error) {
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("reference digests: %w", err)
	}
	return r, nil
}

// checker is the correctness gate of one run. Each cell counts as one
// operation; a cell fails when it returns an error, when it differs from
// the stored reference (default seed and budgets only), or when it
// differs from an earlier result for the same cell in this process: an
// earlier sample, or the state's expect digests (replay-parallel's
// serial replay).
type checker struct {
	ref      map[string]string // nil when the reference does not apply
	seen     map[string]string
	attempts int
	failures []string
}

func newChecker(w *workload, cfg runConfig) *checker {
	c := &checker{seen: map[string]string{}}
	if cfg.seed == 0 && cfg.ref.Budgets == cfg.budgets {
		c.ref = cfg.ref.Cells[w.name]
		if c.ref == nil {
			c.ref = map[string]string{}
		}
	}
	return c
}

func (c *checker) check(cells []cell) {
	for _, cl := range cells {
		c.attempts++
		if cl.err != nil {
			c.fail(fmt.Sprintf("%s: %v", cl.key, cl.err))
			continue
		}
		d := digest(cl.stats)
		if c.ref != nil {
			if want, ok := c.ref[cl.key]; !ok {
				c.fail(fmt.Sprintf("%s: no reference digest", cl.key))
				continue
			} else if d != want {
				c.fail(fmt.Sprintf("%s: digest %q, reference %q", cl.key, d, want))
				continue
			}
		}
		if prev, ok := c.seen[cl.key]; ok && prev != d {
			c.fail(fmt.Sprintf("%s: digest %q, earlier run %q", cl.key, d, prev))
			continue
		}
		c.seen[cl.key] = d
	}
}

// expect seeds the earlier-result digests with the state's own.
func (c *checker) expect(ctx context.Context, st state) error {
	exp, err := st.expect(ctx)
	for k, d := range exp {
		c.seen[k] = d
	}
	return err
}

func (c *checker) fail(msg string) { c.failures = append(c.failures, msg) }

func (c *checker) fill(r *report) {
	r.Attempted = c.attempts
	r.Failed = len(c.failures)
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if len(c.failures) > 5 {
		r.Failures = c.failures[:5]
	} else {
		r.Failures = c.failures
	}
}

func committed(cells []cell) uint64 {
	var n uint64
	for _, cl := range cells {
		n += cl.stats.Committed
	}
	return n
}

// minSetupPhase is the least time the repeated set-ups of one run take
// together: a single set-up of a small workload lasts ~60 ms, too short
// for one reading on a noisy host, so short set-ups are repeated more.
const minSetupPhase = time.Second

// setupAll runs the workload's set-up at least cfg.setupReps times and
// for at least minSetupPhase, each time into a fresh private trace
// directory, and returns the last state with the median set-up time.
// Earlier states are closed and their directories removed; the caller
// closes the returned state.
func setupAll(ctx context.Context, w *workload, cfg runConfig, par int) (state, float64, error) {
	var times []float64
	var st state
	phase := time.Now()
	for i := 0; i < cfg.setupReps || time.Since(phase) < cfg.minSetupPhase; i++ {
		if st != nil {
			st.close()
		}
		dir, err := os.MkdirTemp(cfg.out, "traces-")
		if err != nil {
			return nil, 0, err
		}
		m := now()
		st, err = w.setup(ctx, cfg, dir, par)
		times = append(times, m.until(now()).Seconds())
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return st, median(times), nil
}

// runWorkload is the untraced run: set up, warm up with one untimed
// cycle of the workload's sample sequence, then take timed samples in
// whole cycles for cfg.seconds. A cycle's samples are of different
// kinds (cells), so instrs_per_s is the committed count of one cycle
// over the sum of each kind's median sample time: the throughput of a
// typical cycle. With one kind it is the median sample throughput.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (report, error) {
	host := startHost(w, cfg)
	st, setupS, err := setupAll(ctx, w, cfg, cfg.nproc)
	if err != nil {
		return report{}, err
	}
	defer st.close()
	chk := newChecker(w, cfg)
	if err := chk.expect(ctx, st); err != nil {
		return report{}, err
	}
	cycle := st.cycle()
	for i := 0; i < cycle; i++ {
		warm, err := st.sample(ctx, i)
		if err != nil {
			return report{}, err
		}
		chk.check(warm.cells)
	}

	spans := make([][]float64, cycle) // per kind
	walls := make([][]float64, cycle)
	perCycle := make([]uint64, cycle)
	var ips []float64
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; i%cycle != 0 || i == 0 || time.Since(t0) < deadline; i++ {
		s, err := st.sample(ctx, i)
		if err != nil {
			return report{}, err
		}
		chk.check(s.cells)
		k, n := i%cycle, committed(s.cells)
		perCycle[k] = n
		spans[k] = append(spans[k], s.span.Seconds())
		walls[k] = append(walls[k], s.wall.Seconds())
		ips = append(ips, float64(n)/s.span.Seconds())
	}
	var n uint64
	var span, wall float64
	for k := range spans {
		n += perCycle[k]
		span += median(spans[k])
		wall += median(walls[k])
	}
	r := report{Metrics: map[string]metric{
		"instrs_per_s": {Value: float64(n) / span, Unit: "scheme-instr/s"},
		"setup_s":      {Value: setupS, Unit: "s"},
	}}
	chk.fill(&r)
	r.Host = host.finish(ips)
	r.Host.WallIPS = float64(n) / wall
	return r, nil
}

// sampleResult is one timed sample: its cells, its wall time, and the
// part of that wall time the host did not steal (see mark.until).
type sampleResult struct {
	cells []cell
	wall  time.Duration
	span  time.Duration
}

// timeSample runs f as one sample.
func timeSample(f func() ([]cell, error)) (sampleResult, error) {
	m := now()
	cells, err := f()
	end := now()
	return sampleResult{cells: cells, wall: end.t.Sub(m.t), span: m.until(end)}, err
}

// mark is a moment on two clocks: wall time and the host's cumulative
// steal time.
type mark struct {
	t     time.Time
	steal time.Duration
}

func now() mark { return mark{t: time.Now(), steal: stealTime()} }

// until returns the wall time from m to end minus the time the
// hypervisor stole from this guest meanwhile, averaged over its CPUs.
// Every workload keeps all CPUs busy, so stolen time is time none of
// its work ran: a sample that waited out a neighbour's burst reports
// the speed of the simulator, not of the neighbour. The raw wall-time
// throughput is in the host record. Steal is counted in 10 ms ticks;
// the floor at half the wall time keeps tick rounding from shrinking a
// short sample to nothing.
func (m mark) until(end mark) time.Duration {
	wall := end.t.Sub(m.t)
	return max(wall-(end.steal-m.steal), wall/2)
}

// stealTime is the host's cumulative steal time per CPU, from the
// aggregate line of /proc/stat (USER_HZ = 100 ticks per second), or 0
// where it is unavailable.
func stealTime() time.Duration {
	cpu := readCPUTimes()
	if cpu == nil {
		return 0
	}
	return time.Duration(cpu[7]) * 10 * time.Millisecond / time.Duration(runtime.NumCPU())
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three quartiles of at least two values, by the
// method of Python's statistics.quantiles(values, n=4).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// hostRecord is printed with every result so a noisy run can be
// explained after the fact.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Budgets    budgets `json:"budgets"`
	Seconds    float64 `json:"seconds"`
	Samples    int     `json:"samples"`
	SampleIQR  float64 `json:"sample_iqr_frac"` // spread of the timed samples' throughput over their median
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealFrac  float64 `json:"steal_frac"`        // host steal time over the run, from /proc/stat; -1 if unreadable
	WallIPS    float64 `json:"wall_instrs_per_s"` // instrs_per_s by raw wall time, steal included
	WallS      float64 `json:"wall_s"`

	start time.Time
	cpu0  []uint64
}

func startHost(w *workload, cfg runConfig) *hostRecord {
	return &hostRecord{
		Workload: w.name, Seed: cfg.seed, Budgets: cfg.budgets, Seconds: cfg.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		start: time.Now(), cpu0: readCPUTimes(),
	}
}

func (h *hostRecord) finish(samples []float64) hostRecord {
	h.Samples = len(samples)
	if len(samples) >= 2 {
		q := quartiles(samples)
		h.SampleIQR = (q[2] - q[0]) / q[1]
	}
	h.WallS = time.Since(h.start).Seconds()
	h.StealFrac = -1
	if cpu1 := readCPUTimes(); h.cpu0 != nil && len(cpu1) == len(h.cpu0) {
		var total, steal uint64
		for i := range cpu1 {
			d := cpu1[i] - h.cpu0[i]
			total += d
			if i == 7 { // user nice system idle iowait irq softirq steal
				steal = d
			}
		}
		if total > 0 {
			h.StealFrac = float64(steal) / float64(total)
		}
	}
	return *h
}

// readCPUTimes returns the aggregate "cpu" line of /proc/stat up to and
// including the steal column, or nil where it is unavailable.
func readCPUTimes() []uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		v, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

// recordReference runs one cycle of every workload at cfg's budgets
// and returns the digest of every cell.
func recordReference(ctx context.Context, cfg runConfig) (reference, error) {
	if cfg.seed != 0 {
		return reference{}, fmt.Errorf("the reference is recorded at seed 0")
	}
	ref := reference{Budgets: cfg.budgets, Cells: map[string]map[string]string{}}
	cfg.setupReps, cfg.minSetupPhase = 1, 0
	for _, w := range workloads() {
		cells, err := referenceCells(ctx, w, cfg)
		if err != nil {
			return reference{}, fmt.Errorf("%s: %w", w.name, err)
		}
		ref.Cells[w.name] = cells
	}
	return ref, nil
}

func referenceCells(ctx context.Context, w *workload, cfg runConfig) (map[string]string, error) {
	st, _, err := setupAll(ctx, w, cfg, cfg.nproc)
	if err != nil {
		return nil, err
	}
	defer st.close()
	cells := map[string]string{}
	for i := 0; i < st.cycle(); i++ {
		s, err := st.sample(ctx, i)
		if err != nil {
			return nil, err
		}
		for _, cl := range s.cells {
			if cl.err != nil {
				return nil, fmt.Errorf("%s: %w", cl.key, cl.err)
			}
			cells[cl.key] = digest(cl.stats)
		}
	}
	return cells, nil
}

// writeReference records the default-seed digests at the default
// budgets into path (perfbench/reference.json, embedded at build time).
func writeReference(ctx context.Context, cfg runConfig, path string) error {
	ref, err := recordReference(ctx, cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
