package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dnnperf/internal/core"
	"dnnperf/internal/hw"
	"dnnperf/internal/job"
	"dnnperf/internal/trainsim"
)

// tablesDigest is the SHA-256 of every deterministic table rendered in
// order. The tables do not depend on the seed; a change to the simulator's
// output changes this digest and fails the run until it is updated here.
const tablesDigest = "1f7cfebb1dc179f25859d3f45961a587d392ee6d266a1f7674e5da04f3307417"

// liveTables are the experiments that train for real against wall-clock
// deadlines; their output is not deterministic and sim-suite leaves them out.
var liveTables = []string{"faulttol", "elastic"}

// suiteTables returns the deterministic tables in paper order.
func suiteTables() []string {
	var ids []string
	for _, id := range core.ExperimentIDs() {
		if !slices.Contains(liveTables, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// suitePass runs every deterministic table once and returns the digest of
// their rendered output and each table's time in ms.
func suitePass(ids []string) (string, []float64, error) {
	h := sha256.New()
	times := make([]float64, len(ids))
	for i, id := range ids {
		t0 := time.Now()
		t, err := core.RunExperiment(id)
		if err != nil {
			return "", nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		times[i] = float64(time.Since(t0)) / 1e6
		var out bytes.Buffer
		t.Render(&out)
		h.Write(out.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), times, nil
}

// jobStream is the scheduler's input: n jobs from 3 tenants on nodes of 4
// slots, which RunSim expands from the seed exactly as `dnnsched -synth`
// does.
func jobStream(seed int64, n, nodes int) *job.Workload {
	return &job.Workload{
		Name:    "perfbench",
		Seed:    seed,
		Cluster: job.ClusterSpec{Platform: "Skylake-1", Nodes: nodes, SlotsPerNode: 4},
		Synth:   &job.SynthSpec{Jobs: n, Tenants: 3},
	}
}

// timedEstimator is the stock simulator estimator with a clock around each
// call.
type timedEstimator struct {
	inner *job.SimBackend
	mu    sync.Mutex
	calls int
	spent time.Duration
}

func (e *timedEstimator) IterTime(spec *job.Spec) (time.Duration, error) {
	t0 := time.Now()
	d, err := e.inner.IterTime(spec)
	e.mu.Lock()
	e.calls++
	e.spent += time.Since(t0)
	e.mu.Unlock()
	return d, err
}

// schedRun is one job.RunSim over a fresh estimator.
type schedRun struct {
	jobs   int
	dur    time.Duration
	report []byte
	est    *timedEstimator // nil when untraced
}

// runSched schedules a generated stream of n jobs on nodes, with the stock
// estimator (traced: wrapped in a timer), and checks that every job ran.
func (b *bench) runSched(n, nodes int, traced bool) (*schedRun, error) {
	w := jobStream(b.opts.seed, n, nodes)
	var est job.Estimator = job.NewSimBackend()
	var te *timedEstimator
	if traced {
		te = &timedEstimator{inner: job.NewSimBackend()}
		est = te
	}
	t0 := time.Now()
	rep, err := job.RunSim(w, est, nil)
	dur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	out, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	b.ops(rep.Jobs, rep.Jobs-rep.Done)
	b.check(rep.Jobs == n && rep.Failed == 0 && rep.Deadlocks == 0,
		"RunSim: %d of %d jobs, %d failed, %d deadlocks", rep.Jobs, n, rep.Failed, rep.Deadlocks)
	return &schedRun{jobs: rep.Jobs, dur: dur, report: out, est: te}, nil
}

// simJobs and simNodes size the scheduler's base stream; the scaling stream
// halves both.
const (
	simJobs  = 1000
	simNodes = 16
)

// suiteIter is one iteration of sim-suite: a pass over the tables, then the
// base job stream and either the halved stream (untraced) or the base
// stream again with its estimator timed (traced), in alternating order.
type suiteIter struct {
	tables       []float64
	base, second *schedRun
}

// simSuite runs setupReps untimed iterations, then timed ones until seconds
// have passed and at least minSteps tables ran. Every iteration is checked
// against the kept digest and the first iteration's reports.
func (b *bench) simSuite(traced bool, seconds float64, minSteps int) (setups []float64, timed []suiteIter, err error) {
	ids := suiteTables()
	var ref [2][]byte
	iterate := func(i int) (suiteIter, error) {
		var it suiteIter
		// Start every iteration from the same heap, as training launches do.
		debug.FreeOSMemory()
		digest, tables, err := suitePass(ids)
		if err != nil {
			return it, err
		}
		b.ops(len(ids), 0)
		if b.opts.corrupt == "digest" {
			digest = "0" + digest[1:]
		}
		b.check(digest == tablesDigest, "pass %d: tables digest %s, want %s", i, digest, tablesDigest)
		it.tables = tables
		jobs, nodes := simJobs/2, simNodes/2
		if traced {
			jobs, nodes = simJobs, simNodes
		}
		runs := []func() error{
			func() (err error) { it.base, err = b.runSched(simJobs, simNodes, false); return err },
			func() (err error) { it.second, err = b.runSched(jobs, nodes, traced); return err },
		}
		if i%2 == 1 { // alternate which of the pair runs first
			runs[0], runs[1] = runs[1], runs[0]
		}
		for _, run := range runs {
			if err := run(); err != nil {
				return it, err
			}
		}
		if i == 0 {
			ref = [2][]byte{it.base.report, it.second.report}
		}
		b.check(bytes.Equal(it.base.report, ref[0]) && bytes.Equal(it.second.report, ref[1]),
			"pass %d: RunSim report differs from the first pass's", i)
		return it, nil
	}
	for i := 0; i < b.opts.setupReps; i++ {
		t0 := time.Now()
		if _, err := iterate(i); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	for n := 0; time.Since(t0).Seconds() < seconds || n < minSteps; {
		it, err := iterate(b.opts.setupReps + len(timed))
		if err != nil {
			return nil, nil, err
		}
		timed = append(timed, it)
		n += len(it.tables)
	}
	return setups, timed, nil
}

// runSimSuite is the untraced end-to-end run of sim-suite.
func runSimSuite(b *bench) error {
	setups, iters, err := b.simSuite(false, b.opts.seconds, b.opts.minSteps)
	if err != nil {
		return err
	}
	// Each iteration gives one rate of each stream; pairing the two streams
	// of one iteration cancels the machine's drift in scaling_eff.
	var tables, rates, scales []float64
	for _, it := range iters {
		tables = append(tables, it.tables...)
		rate := float64(it.base.jobs) / it.base.dur.Seconds()
		rates = append(rates, rate)
		scales = append(scales, rate/(float64(it.second.jobs)/it.second.dur.Seconds()))
	}
	b.set("throughput", "1/s", quantile(rates, 0.5))
	b.set("step_p50_ms", "ms", quantile(tables, 0.5))
	b.set("step_p90_ms", "ms", quantile(tables, 0.9))
	b.set("scaling_eff", "ratio", quantile(scales, 0.5))
	b.set("setup_s", "s", quantile(setups, 0.5))
	return nil
}

// fig17Point is the Fig. 17 configuration trainsim.simulate_us times.
func fig17Point() (trainsim.Config, error) {
	cpu, err := hw.ByLabel("Skylake-3")
	return trainsim.Config{Model: "resnet50", Framework: "tensorflow", CPU: cpu, Nodes: 128, PPN: 4, BatchPerProc: 32}, err
}

// runSimSuiteTraced times each layer of sim-suite: the tables, one
// simulation, and the scheduler with its estimator split out. Each iteration
// schedules the base stream untraced and then traced, which gives the
// reference for the tracing overhead; the two reports must be identical.
func runSimSuiteTraced(b *bench) error {
	_, iters, err := b.simSuite(true, b.opts.seconds, b.opts.minSteps)
	if err != nil {
		return err
	}
	b.check(bytes.Equal(iters[0].base.report, iters[0].second.report), "traced RunSim report differs from the untraced one")
	var plain, traced []float64
	var est, sched time.Duration
	var calls int
	for _, it := range iters {
		plain = append(plain, it.base.dur.Seconds())
		traced = append(traced, it.second.dur.Seconds())
		est += it.second.est.spent
		calls += it.second.est.calls
		sched += it.second.dur
	}
	n := float64(len(iters))
	var pass float64
	for i, id := range suiteTables() {
		var sum float64
		for _, it := range iters {
			sum += it.tables[i]
		}
		b.set("runner.exp_ms."+id, "ms", sum/n)
		pass += sum / n
	}
	b.set("runner.suite_s", "s", pass/1e3)

	cfg, err := fig17Point()
	if err != nil {
		return err
	}
	var sims []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := trainsim.Simulate(cfg); err != nil {
			return err
		}
		sims = append(sims, float64(time.Since(t0))/1e3)
	}
	b.ops(len(sims), 0)
	b.set("trainsim.simulate_us", "us", quantile(sims, 0.5))
	b.set("sched.estimate_ms", "ms", float64(est)/1e6/n)
	b.set("sched.estimate_calls", "count", float64(calls)/n)
	b.set("sched.core_ms", "ms", float64(sched-est)/1e6/n)
	// The estimator's clock is the only tracing sim-suite adds.
	b.set("bench.trace_overhead_pct", "%", 100*(quantile(traced, 0.5)/quantile(plain, 0.5)-1))
	return nil
}
