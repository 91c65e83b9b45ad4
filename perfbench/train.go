package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/horovod"
	"dnnperf/internal/job"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/train"
)

// trainWorkload is one training workload: the job at full width, its
// one-worker baseline for scaling_eff, and how its ranks are composed.
type trainWorkload struct {
	// width is the job's ranks (dp2-*) or intra-op threads (single-tinycnn);
	// the scaling baseline runs the same job at width 1.
	width  int
	warmup int64 // untimed steps before the timed phase
	// exact is set when the job's reductions run in a fixed order, so runs
	// on the same seed are bit-identical. With more than one intra-op
	// thread, Conv2D's backward merges per-chunk kernel-gradient partials
	// in completion order, and same-seed runs then agree only to rounding.
	exact bool
	// segment and baseSegment are the timed steps of one launch of the job
	// and of its width-1 baseline. minSteps is the fewest timed steps of
	// the job a run pools; it pools at least --seconds of them in any case.
	segment, baseSegment, minSteps int
	// newFleet composes the job's ranks at the given width: transport,
	// engine, model, optimizer and data shards.
	newFleet func(b *bench, width int) ([]*rankEnv, error)
	// launch, if set, runs the untraced job through a job backend instead
	// of the generic trainer loop over newFleet's ranks.
	launch func(b *bench, width int, h *halter, s *session) error
}

// rankEnv is one rank's program stack.
type rankEnv struct {
	rank    int
	threads int
	model   *models.Model
	opt     train.Optimizer
	gen     func() data.Batch
	comm    *mpi.Comm           // nil for a single process
	eng     *horovod.Engine     // nil for a single process
	reg     *telemetry.Registry // the rank's counters (Instrument, engine)
	tracer  *telemetry.Tracer   // the program's own tracer, as its launcher composes it
}

// halter decides when a job's ranks stop. A fixed run stops every rank after
// exactly that many steps. A timed run follows the rule RunContext.Preempt
// uses: once rank 0's timed phase has lasted --seconds and holds enough
// steps, the boundary is set three steps past the highest step any rank has
// completed, which every rank reaches and none has passed.
type halter struct {
	warmup   int64
	fixed    int64
	seconds  float64
	minSteps int64

	timedAt time.Time // written and read by rank 0 only
	maxStep atomic.Int64
	haltAt  atomic.Int64
}

func fixedHalter(warmup, steps int64) *halter { return &halter{warmup: warmup, fixed: steps} }

func timedHalter(warmup int64, seconds float64, minSteps int) *halter {
	return &halter{warmup: warmup, seconds: seconds, minSteps: int64(minSteps)}
}

// observe records that rank completed step; it reports true when this call
// armed the stop boundary.
func (h *halter) observe(rank int, step int64) bool {
	for {
		cur := h.maxStep.Load()
		if step <= cur || h.maxStep.CompareAndSwap(cur, step) {
			break
		}
	}
	if rank != 0 || h.fixed > 0 {
		return false
	}
	if step == h.warmup {
		h.timedAt = time.Now()
	}
	if step < h.warmup+h.minSteps || time.Since(h.timedAt).Seconds() < h.seconds {
		return false
	}
	return h.haltAt.CompareAndSwap(0, h.maxStep.Load()+3)
}

// stop reports whether a rank that has completed done steps must stop.
func (h *halter) stop(done int64) bool {
	b := h.fixed
	if b == 0 {
		b = h.haltAt.Load()
	}
	return b > 0 && done >= b
}

// stepRec is one completed step and when it ended.
type stepRec struct {
	st  train.StepStats
	end time.Time
}

// session is one launch of a job: every rank's steps and final weights CRC.
type session struct {
	start  time.Time
	warmup int64
	mu     sync.Mutex
	steps  [][]stepRec // per rank
	crcs   []uint32    // per rank
}

func newSession(ranks int, warmup int64) *session {
	return &session{start: time.Now(), warmup: warmup, steps: make([][]stepRec, ranks), crcs: make([]uint32, ranks)}
}

func (s *session) record(rank int, st train.StepStats) {
	end := time.Now()
	s.mu.Lock()
	s.steps[rank] = append(s.steps[rank], stepRec{st, end})
	s.mu.Unlock()
}

// setup is the time from launch to the end of rank 0's warm-up.
func (s *session) setup() time.Duration { return s.steps[0][s.warmup-1].end.Sub(s.start) }

// timed returns rank 0's steps after warm-up.
func (s *session) timed() []stepRec { return s.steps[0][s.warmup:] }

// wall is the timed phase's wall time on rank 0.
func (s *session) wall() time.Duration {
	r0 := s.steps[0]
	return r0[len(r0)-1].end.Sub(r0[s.warmup-1].end)
}

// images counts the images of every rank's timed steps.
func (s *session) images() float64 {
	imgs := 0
	for _, rs := range s.steps {
		for _, r := range rs[min(int(s.warmup), len(rs)):] {
			imgs += r.st.Images
		}
	}
	return float64(imgs)
}

// losses returns rank 0's loss at every step, warm-up included.
func (s *session) losses() []float64 {
	out := make([]float64, len(s.steps[0]))
	for i, r := range s.steps[0] {
		out[i] = r.st.Loss
	}
	return out
}

func (s *session) stepTimesMS() []float64 {
	t := s.timed()
	out := make([]float64, len(t))
	for i, r := range t {
		out[i] = float64(r.st.Duration) / 1e6
	}
	return out
}

// launchOnce runs the untraced job once at width under h.
func (w *trainWorkload) launchOnce(b *bench, width int, h *halter) (*session, error) {
	// Return the previous launch's memory first, so that each launch starts
	// from the same heap and peak_rss_mb reflects one job, not their sum.
	debug.FreeOSMemory()
	if w.launch != nil {
		s := newSession(width, h.warmup)
		return s, w.launch(b, width, h, s)
	}
	start := time.Now()
	ranks, err := w.newFleet(b, width)
	if err != nil {
		return nil, err
	}
	s := newSession(len(ranks), h.warmup)
	s.start = start
	err = onRanks(ranks, func(re *rankEnv) error { return runTrainer(re, h, s) })
	err = errors.Join(err, stopEngines(ranks))
	closeComms(ranks)
	return s, err
}

// onRanks runs fn on every rank concurrently and joins their errors.
func onRanks(ranks []*rankEnv, fn func(*rankEnv) error) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, re := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(re)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runTrainer is the program's own training loop on one rank: train.Trainer
// steps until the halter stops the job.
func runTrainer(re *rankEnv, h *halter, s *session) error {
	tr, err := train.New(train.Config{
		Model:        re.model,
		IntraThreads: re.threads,
		Optimizer:    re.opt,
		Engine:       re.eng,
		Rank:         re.rank,
		Telemetry:    re.reg,
		Tracer:       re.tracer,
	})
	if err != nil {
		return err
	}
	defer tr.Close()
	var done int64
	for !h.stop(done) {
		st, err := tr.Step(re.gen())
		if err != nil {
			return fmt.Errorf("rank %d step %d: %w", re.rank, done+1, err)
		}
		done++
		s.record(re.rank, st)
		h.observe(re.rank, done)
	}
	s.crcs[re.rank] = weightsCRC(re.model, re.opt, done)
	return nil
}

// weightsCRC fingerprints a model and its optimizer state the way
// train.SupervisorResult.WeightsCRC does: the checkpoint bytes' CRC-32.
func weightsCRC(m *models.Model, opt train.Optimizer, step int64) uint32 {
	var buf bytes.Buffer
	if err := train.SaveTrainingCheckpoint(&buf, m, train.CaptureTrainState(opt, step)); err != nil {
		return 0
	}
	return crc32.ChecksumIEEE(buf.Bytes())
}

// lossCeiling is the cross-entropy of the probability floor (1e-12) the loss
// kernel clamps to; a diverged model sits there.
var lossCeiling = -math.Log(1e-12)

// checkSession checks one session's outputs: every rank finished with the
// same weights, and rank 0's loss stayed finite and did not saturate. A
// diverged model's loss sits at lossCeiling, so the median of the last ten
// steps must stay well below it.
func (b *bench) checkSession(what string, s *session) {
	crcs := s.crcs
	if b.opts.corrupt == "crc" {
		crcs = append([]uint32(nil), crcs...)
		crcs[len(crcs)-1] ^= 1
	}
	agree := crcs[0] != 0
	for _, c := range crcs[1:] {
		agree = agree && c == crcs[0]
	}
	b.check(agree, "%s: ranks disagree on the weights CRC: %08x", what, crcs)
	ls := s.losses()
	ok := len(ls) > 0
	for _, l := range ls {
		ok = ok && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	tail := ls[max(0, len(ls)-10):]
	b.check(ok && quantile(tail, 0.5) < lossCeiling/2, "%s: loss not finite or saturated (last %v)", what, tail)
}

// lossTolerance bounds the relative loss difference between same-seed runs
// of a workload whose reductions are not ordered (trainWorkload.exact).
const lossTolerance = 1e-4

// checkSameRun checks that two runs of the job on the same seed computed
// the same thing: the same final weights CRC, or for an inexact workload the
// same losses within lossTolerance.
func (b *bench) checkSameRun(w *trainWorkload, what string, a, c *session) {
	if !w.exact {
		b.checkLosses(w, what, a.losses(), c.losses())
		return
	}
	b.check(a.crcs[0] == c.crcs[0], "%s: weights CRC %08x differs from the first run's %08x on the same seed", what, c.crcs[0], a.crcs[0])
}

// checkLosses checks that two same-seed runs had the same loss at every
// step both made: bit for bit when the workload is exact, else within
// lossTolerance.
func (b *bench) checkLosses(w *trainWorkload, what string, x, y []float64) {
	n := min(len(x), len(y))
	bad := -1
	for i := 0; i < n && bad < 0; i++ {
		d := math.Abs(x[i] - y[i])
		if (w.exact && d != 0) || d > lossTolerance*math.Abs(x[i]) {
			bad = i
		}
	}
	b.check(n > 0 && bad < 0, "%s: step %d loss differs (%d steps compared)", what, bad+1, n)
}

// runTraining is the untraced end-to-end run of a training workload. It
// runs rounds of two launches, the width-1 baseline and then the job, each a
// fixed number of steps, until the job's timed steps have lasted --seconds.
// Interleaving the launches lets both widths see the same drift of a shared
// machine, and scaling_eff compares their median step times; every launch
// is a full set-up, so setup_s is their median; and every launch of one
// width must compute the same weights.
func runTraining(w *trainWorkload) func(*bench) error {
	return func(b *bench) error {
		segments := []int{w.baseSegment, w.segment}
		if b.opts.segment > 0 {
			segments = []int{min(w.baseSegment, b.opts.segment), min(w.segment, b.opts.segment)}
		}
		var setups []float64
		var times [2][]float64 // timed step times per width
		var perStep [2]float64 // images per step per width, all ranks
		var images float64
		var wall time.Duration
		var first [2]*session
		for r := 0; r < b.opts.setupReps || wall.Seconds() < b.opts.seconds || len(times[1]) < min(w.minSteps, b.opts.minSteps); r++ {
			for i, width := range []int{1, w.width} {
				s, err := w.launchOnce(b, width, fixedHalter(w.warmup, w.warmup+int64(segments[i])))
				if err != nil {
					return err
				}
				what := fmt.Sprintf("round %d width %d", r, width)
				b.checkSession(what, s)
				if first[i] == nil {
					first[i] = s
				} else {
					b.checkSameRun(w, what, first[i], s)
				}
				b.ops(len(s.steps[0]), 0)
				times[i] = append(times[i], s.stepTimesMS()...)
				perStep[i] = s.images() / float64(len(s.timed()))
				if i == 1 {
					setups = append(setups, s.setup().Seconds())
					images += s.images()
					wall += s.wall()
				}
			}
		}
		rate := func(i int) float64 { return perStep[i] / quantile(times[i], 0.5) }
		b.set("throughput", "1/s", images/wall.Seconds())
		b.set("step_p50_ms", "ms", quantile(times[1], 0.5))
		b.set("step_p90_ms", "ms", quantile(times[1], 0.9))
		b.set("scaling_eff", "ratio", rate(1)/(float64(w.width)*rate(0)))
		b.set("setup_s", "s", quantile(setups, 0.5))
		return nil
	}
}

// tinyCNNSpec is the default job.Spec the dp2-tinycnn-inproc workload runs,
// at the given width.
func tinyCNNSpec(b *bench, ranks int, steps int64) (job.Spec, error) {
	spec := job.Spec{Name: "perfbench", PPN: ranks, IntraThreads: 1, Seed: b.opts.seed, Steps: int(steps)}
	return spec, spec.Validate()
}
