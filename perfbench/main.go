// Command perfbench is dnnperf's end-to-end and per-layer benchmark. One
// invocation runs one workload in this process, checks the program's outputs,
// and prints every metric by name with its unit. The last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 the run decomposes each step from the benchmark's own spans and
// prints the per-layer metrics instead. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options is one invocation's configuration. The fields below the flags are
// fixed for a real run; the smoke test shrinks them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// minSteps is the fewest timed steps (or simulator tables) a timed
	// phase may hold, so that step_p90_ms has ten samples beyond it.
	minSteps int
	// setupReps is how many times a run sets the workload up; setup_s is
	// their median.
	setupReps int
	// segment, when positive, caps the steps of one training launch.
	segment int
	// corrupt, when "crc" or "digest", flips a bit of the named fingerprint
	// before it is checked, so a test can prove the check fails the run.
	corrupt string
}

func defaultOptions() options {
	return options{seed: 1, seconds: 12, minSteps: 100, setupReps: 3}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(*bench) error
}{
	"single-tinycnn":     {runTraining(singleTinyCNN), runTrainingTraced(singleTinyCNN)},
	"dp2-tinycnn-inproc": {runTraining(dp2Inproc), runTrainingTraced(dp2Inproc)},
	"dp2-resnet18-tcp":   {runTraining(dp2ResNetTCP), runTrainingTraced(dp2ResNetTCP)},
	"sim-suite":          {runSimSuite, runSimSuiteTraced},
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	o := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", o.seed, "seed for the generated inputs (data shards, job stream)")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer decomposition instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs the selected workload, untraced or traced.
func runWorkload(opts options) (*bench, error) {
	b := &bench{opts: opts, metrics: map[string]metric{}}
	w := workloads[opts.workload]
	run := w.run
	if opts.trace {
		run = w.traced
		// A layer the workload does not run reports zero.
		for _, m := range perLayer() {
			b.set(m.name, m.unit, 0)
		}
	}
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	if !opts.trace {
		b.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return b, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists the traced run's metrics with their units.
func perLayer() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"tensor.gflops", "GFLOP/s"},
		{"tensor.arena_hit_ratio", "ratio"},
		{"graph.fwd_ms", "ms"},
		{"graph.bwd_ms", "ms"},
		{"train.opt_ms", "ms"},
		{"train.wait_ms", "ms"},
		{"train.other_ms", "ms"},
		{"train.comm_frac", "ratio"},
		{"go.allocs_per_step", "count"},
		{"go.gc_pause_ms_per_step", "ms"},
		{"hvd.tensor_latency_p50_ms", "ms"},
		{"hvd.allreduces_per_step", "count"},
		{"hvd.cycles_per_step", "count"},
		{"hvd.tensors_per_allreduce", "count"},
		{"hvd.control_bytes_per_step", "B"},
		{"hvd.cached_announce_ratio", "ratio"},
		{"mpi.bytes_per_step", "B"},
		{"mpi.frames_per_step", "count"},
		{"mpi.failed_ops", "count"},
		{"mpi.pool_miss_ratio", "ratio"},
		{"mpi.allreduce_ms", "ms"},
		{"mpi.busbw_mb_s", "MB/s"},
		{"runner.suite_s", "s"},
		{"trainsim.simulate_us", "us"},
		{"sched.estimate_ms", "ms"},
		{"sched.estimate_calls", "count"},
		{"sched.core_ms", "ms"},
		{"bench.step_coverage_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
	}
	for _, id := range suiteTables() {
		ms = append(ms, struct{ name, unit string }{"runner.exp_ms." + id, "ms"})
	}
	return ms
}

// bench accumulates one run's operation counts, check outcomes and metrics.
type bench struct {
	opts      options
	attempted int
	failed    int
	metrics   map[string]metric
}

// ops counts n operations (steps, experiments, scheduled jobs), of which
// bad failed.
func (b *bench) ops(n, bad int) {
	b.attempted += n
	b.failed += bad
}

// check counts one correctness check as an operation; a false check is a
// failed operation and is explained on standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// set records a metric. A value that is not finite is a failed measurement:
// it is reported as 0 and fails the run.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(false, "metric %s is %v", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// report prints the environment, a readable metric table and, last, the
// one-line JSON result.
func (b *bench) report(w io.Writer) error {
	env, err := json.Marshal(environment(b.opts))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// commit is the checkout's git revision; run.sh sets it at link time.
var commit = "unknown"

// environment records what a result depends on besides the code.
func environment(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// peakRSSMB is this process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
