package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnnperf/internal/graph"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/tensor"
	"dnnperf/internal/train"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one training step share (rank, step).
type span struct {
	name       string
	rank       int
	step       int64
	start, end time.Time
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(sp span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// sum totals the durations of the named spans on rank 0 after step from.
func (l *spanLog) sum(name string, from int64) time.Duration {
	var d time.Duration
	for _, sp := range l.spans {
		if sp.name == name && sp.rank == 0 && sp.step > from {
			d += sp.end.Sub(sp.start)
		}
	}
	return d
}

// counters is what rank 0's layers have counted up to one instant.
type counters struct {
	mallocs, gcPauseNs                       int64 // runtime.MemStats
	arenaHits, arenaGets                     int64 // Arena.Stats
	requests, allreduces, cycles, fusedBytes int64 // Engine.Stats
	controlBytes, cached, named              int64 // Engine.Stats
	poolGets, poolMisses                     int64 // FramePool.Stats
	bytes, frames, errs                      int64 // Instrument: sent over all peers; send+recv errors
}

func readCounters(re *rankEnv, arena *tensor.Arena) counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	a := arena.Stats()
	c := counters{mallocs: int64(mem.Mallocs), gcPauseNs: int64(mem.PauseTotalNs), arenaHits: a.Hits, arenaGets: a.Gets}
	if re.eng != nil {
		e := re.eng.Stats()
		c.requests, c.allreduces, c.cycles, c.fusedBytes = e.FrameworkRequests, e.EngineAllreduces, e.Cycles, e.FusedBytes
		c.controlBytes, c.cached, c.named = e.ControlBytes, e.CachedAnnouncements, e.NamedAnnouncements
		p := re.comm.FramePool().Stats()
		c.poolGets, c.poolMisses = p.Gets, p.Misses
		for peer := 0; peer < re.comm.Size(); peer++ {
			l := telemetry.L("peer", strconv.Itoa(peer))
			c.bytes += re.reg.Counter("mpi.bytes_sent", l).Value()
			c.frames += re.reg.Counter("mpi.frames_sent", l).Value()
		}
		c.errs = re.reg.Counter("mpi.send_errors").Value() + re.reg.Counter("mpi.recv_errors").Value()
	}
	return c
}

// accumulate adds what was counted between before and now.
func (c *counters) accumulate(before, now counters) {
	c.mallocs += now.mallocs - before.mallocs
	c.gcPauseNs += now.gcPauseNs - before.gcPauseNs
	c.arenaHits += now.arenaHits - before.arenaHits
	c.arenaGets += now.arenaGets - before.arenaGets
	c.requests += now.requests - before.requests
	c.allreduces += now.allreduces - before.allreduces
	c.cycles += now.cycles - before.cycles
	c.fusedBytes += now.fusedBytes - before.fusedBytes
	c.controlBytes += now.controlBytes - before.controlBytes
	c.cached += now.cached - before.cached
	c.named += now.named - before.named
	c.poolGets += now.poolGets - before.poolGets
	c.poolMisses += now.poolMisses - before.poolMisses
	c.bytes += now.bytes - before.bytes
	c.frames += now.frames - before.frames
	c.errs += now.errs - before.errs
}

// tracedRun is what the decomposed launches of one job observed, pooled
// over their timed steps on rank 0.
type tracedRun struct {
	log   *spanLog
	delta counters  // rank 0's counts over the timed steps
	latMS []float64 // rank 0: allreduce submit → callback
	arMS  []float64 // standalone Comm.Allreduce times
}

// runDecomposed trains one rank with each step built from the layers'
// public calls, exactly as train.Trainer.Step composes them, with a span
// around each call.
func runDecomposed(re *rankEnv, h *halter, s *session, tr *tracedRun) error {
	m := re.model
	intra := tensor.NewPool(re.threads)
	defer intra.Close()
	ex := graph.NewExecutor(m.G, intra, 1)
	ex.Tracer = re.tracer
	arena := tensor.NewArena()
	ex.UseArena(arena)
	feeds := map[*graph.Node]*tensor.Tensor{}

	type reduced struct {
		err error
		lat time.Duration
	}
	doneCh := make(chan reduced, len(m.G.Variables()))
	var pending atomic.Int32
	if re.eng != nil {
		ex.GradHook = func(v *graph.Node) {
			pending.Add(1)
			t0 := time.Now()
			err := re.eng.AllreduceAsync(v.Name, v.Grad.Data(), func(err error) {
				doneCh <- reduced{err, time.Since(t0)}
			})
			if err != nil {
				doneCh <- reduced{err: err}
			}
		}
	}
	var step int64
	var before counters // rank 0, at the end of warm-up
	timed := func(name string, fn func() error) error {
		sp := span{name: name, rank: re.rank, step: step, start: time.Now()}
		err := fn()
		sp.end = time.Now()
		tr.log.add(sp)
		return err
	}
	for !h.stop(step) {
		b := re.gen()
		start := time.Now()
		step++
		if re.eng != nil {
			re.eng.SetStep(step)
		}
		pending.Store(0)
		m.G.ZeroGrads()
		feeds[m.Input] = b.Images
		var st *graph.ExecState
		err := timed("graph.forward", func() (err error) {
			st, err = ex.Forward(feeds)
			return err
		})
		if err != nil {
			return err
		}
		loss, grad := tensor.CrossEntropyLoss(ex.KernelPool(), st.Value(m.Logits), b.Labels)
		if err := timed("graph.backward", func() error { return ex.Backward(st, m.Logits, grad) }); err != nil {
			return err
		}
		if re.eng != nil {
			err := timed("train.allreduce_wait", func() error {
				var first error
				for i := int32(0); i < pending.Load(); i++ {
					r := <-doneCh
					first = errors.Join(first, r.err)
					if re.rank == 0 && step > h.warmup {
						tr.latMS = append(tr.latMS, float64(r.lat)/1e6)
					}
				}
				return first
			})
			if err != nil {
				return fmt.Errorf("rank %d step %d: allreduce: %w", re.rank, step, err)
			}
		}
		timed("train.optimizer", func() error { re.opt.Step(intra, m.G); return nil })
		ex.Arena().Put(grad)
		st.Release()
		end := time.Now()
		tr.log.add(span{name: "train.step", rank: re.rank, step: step, start: start, end: end})
		s.record(re.rank, train.StepStats{Loss: loss, Images: len(b.Labels), Duration: end.Sub(start)})
		if re.rank == 0 && step == h.warmup {
			before = readCounters(re, arena)
		}
		h.observe(re.rank, step)
	}
	if re.rank == 0 {
		tr.delta.accumulate(before, readCounters(re, arena))
	}
	s.crcs[re.rank] = weightsCRC(m, re.opt, step)
	return nil
}

// runTrainingTraced is the traced run of a training workload. It runs
// rounds of two launches of the job, each a fixed number of steps: one
// untraced, as the end-to-end run launches it, and one decomposed, whose
// spans and counters give the per-layer metrics. The order alternates from
// round to round, so both kinds see the same drift of a shared machine and
// bench.trace_overhead_pct compares their pooled median step times. Rounds
// repeat until the two kinds' timed steps have lasted --seconds.
func runTrainingTraced(w *trainWorkload) func(*bench) error {
	return func(b *bench) error {
		segment := max(w.segment/2, 1)
		if b.opts.segment > 0 {
			segment = min(segment, b.opts.segment)
		}
		tr := &tracedRun{log: &spanLog{}}
		var plain, traced []float64 // timed step times of each kind
		var wall time.Duration
		var first *session
		var flops int64
		for r := 0; r < 2 || wall.Seconds() < b.opts.seconds; r++ {
			var ref, dec *session
			for k := 0; k < 2; k++ {
				h := fixedHalter(w.warmup, w.warmup+int64(segment))
				if (r+k)%2 == 0 {
					s, err := w.launchOnce(b, w.width, h)
					if err != nil {
						return err
					}
					ref = s
					continue
				}
				debug.FreeOSMemory()
				ranks, err := w.newFleet(b, w.width)
				if err != nil {
					return err
				}
				flops = ranks[0].model.FwdFLOPs() + ranks[0].model.BwdFLOPs()
				dec = newSession(len(ranks), w.warmup)
				err = onRanks(ranks, func(re *rankEnv) error { return runDecomposed(re, h, dec, tr) })
				err = errors.Join(err, stopEngines(ranks))
				if err == nil && ranks[0].comm != nil {
					err = probeAllreduce(ranks, tr)
				}
				closeComms(ranks)
				if err != nil {
					return err
				}
			}
			b.checkSession(fmt.Sprintf("round %d untraced", r), ref)
			b.checkSession(fmt.Sprintf("round %d traced", r), dec)
			b.ops(len(ref.steps[0])+len(dec.steps[0]), 0)
			if first == nil {
				first = ref
			} else {
				b.checkSameRun(w, fmt.Sprintf("round %d untraced", r), first, ref)
			}
			// The decomposed step must be the same program: the same loss
			// on every step.
			b.checkLosses(w, fmt.Sprintf("round %d traced against untraced", r), ref.losses(), dec.losses())
			plain = append(plain, ref.stepTimesMS()...)
			traced = append(traced, dec.stepTimesMS()...)
			wall += ref.wall() + dec.wall()
		}
		b.layerMetrics(w, tr, len(traced), flops)
		b.set("bench.trace_overhead_pct", "%", 100*(quantile(traced, 0.5)/quantile(plain, 0.5)-1))
		return nil
	}
}

// probeAllreduce times a standalone Comm.Allreduce of the mean fused
// allreduce size so far on the job's own transport, after the engines
// stopped.
func probeAllreduce(ranks []*rankEnv, tr *tracedRun) error {
	d := tr.delta
	if d.allreduces == 0 {
		return nil
	}
	n := int(d.fusedBytes/d.allreduces) / 4
	const reps = 5
	return onRanks(ranks, func(re *rankEnv) error {
		buf := make([]float32, n)
		for i := 0; i < reps; i++ {
			if err := re.comm.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := re.comm.Allreduce(buf, mpi.OpSum); err != nil {
				return err
			}
			if re.rank == 0 {
				tr.arMS = append(tr.arMS, float64(time.Since(t0))/1e6)
			}
		}
		return nil
	})
}

// layerMetrics derives the per-layer metrics from the decomposed launches'
// spans and counter deltas over their timed steps on rank 0.
func (b *bench) layerMetrics(w *trainWorkload, tr *tracedRun, timedSteps int, flops int64) {
	steps := float64(timedSteps)
	from := w.warmup
	perStep := func(d time.Duration) float64 { return float64(d) / 1e6 / steps }
	wall := tr.log.sum("train.step", from)
	fwd, bwd := tr.log.sum("graph.forward", from), tr.log.sum("graph.backward", from)
	opt, wait := tr.log.sum("train.optimizer", from), tr.log.sum("train.allreduce_wait", from)
	covered := float64(fwd+bwd+opt+wait) / float64(wall)
	b.check(covered >= 0.95, "traced spans cover %.1f%% of step time, want at least 95%%", 100*covered)

	d := tr.delta
	b.set("tensor.gflops", "GFLOP/s", float64(flops)*steps/(fwd+bwd).Seconds()/1e9)
	b.set("tensor.arena_hit_ratio", "ratio", ratio(d.arenaHits, d.arenaGets))
	b.set("graph.fwd_ms", "ms", perStep(fwd))
	b.set("graph.bwd_ms", "ms", perStep(bwd))
	b.set("train.opt_ms", "ms", perStep(opt))
	b.set("train.wait_ms", "ms", perStep(wait))
	b.set("train.other_ms", "ms", perStep(wall-fwd-bwd-opt-wait))
	b.set("train.comm_frac", "ratio", float64(wait)/float64(wall))
	b.set("bench.step_coverage_pct", "%", 100*covered)

	b.set("go.allocs_per_step", "count", float64(d.mallocs)/steps)
	b.set("go.gc_pause_ms_per_step", "ms", float64(d.gcPauseNs)/1e6/steps)

	b.set("hvd.tensor_latency_p50_ms", "ms", quantile(tr.latMS, 0.5))
	b.set("hvd.allreduces_per_step", "count", float64(d.allreduces)/steps)
	b.set("hvd.cycles_per_step", "count", float64(d.cycles)/steps)
	b.set("hvd.tensors_per_allreduce", "count", ratio(d.requests, d.allreduces))
	b.set("hvd.control_bytes_per_step", "B", float64(d.controlBytes)/steps)
	b.set("hvd.cached_announce_ratio", "ratio", ratio(d.cached, d.cached+d.named))

	b.set("mpi.bytes_per_step", "B", float64(d.bytes)/steps)
	b.set("mpi.frames_per_step", "count", float64(d.frames)/steps)
	b.set("mpi.failed_ops", "count", float64(d.errs))
	b.set("mpi.pool_miss_ratio", "ratio", ratio(d.poolMisses, d.poolGets))
	arMS := quantile(tr.arMS, 0.5)
	b.set("mpi.allreduce_ms", "ms", arMS)
	busbw := 0.0
	if arMS > 0 {
		// The ring's bus bandwidth: each rank moves 2(n-1)/n of the buffer.
		n := float64(w.width)
		busbw = float64(d.fusedBytes/d.allreduces) * 2 * (n - 1) / n / (arMS / 1e3) / 1e6
	}
	b.set("mpi.busbw_mb_s", "MB/s", busbw)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
