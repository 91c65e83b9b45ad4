package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dnnperf/internal/data"
	"dnnperf/internal/horovod"
	"dnnperf/internal/job"
	"dnnperf/internal/models"
	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
	"dnnperf/internal/train"
)

// singleTinyCNN is the cmd/tfsim path: one process, no engine, TinyCNN at
// its native 32 px, batch 32, 10 classes, plain SGD, and an intra-op pool of
// nproc threads (the baseline uses one).
var singleTinyCNN = &trainWorkload{
	width:       runtime.NumCPU(),
	warmup:      2,
	segment:     34,
	baseSegment: 8,
	minSteps:    100,
	newFleet: func(b *bench, threads int) ([]*rankEnv, error) {
		m := models.TinyCNN(models.Config{Batch: 32, Classes: 10, Seed: 1})
		gen, err := data.NewSynthetic(32, 3, m.Cfg.ImageSize, 10, data.Shard(b.opts.seed, 0))
		if err != nil {
			return nil, err
		}
		return []*rankEnv{{threads: threads, model: m, opt: &train.SGD{LR: 0.05}, gen: gen.Next}}, nil
	},
}

// dp2Inproc runs the default job.Spec (TinyCNN 16 px, batch 4, 300 µs
// cycle, one intra-op thread per rank) on 2 in-process ranks. The untraced
// run goes through job.InprocBackend; the traced run composes the same
// ranks (plus mpi.Instrument, for its counters) from the spec's parts.
var dp2Inproc = &trainWorkload{
	width:       2,
	exact:       true,
	warmup:      5,
	segment:     150,
	baseSegment: 60,
	minSteps:    100,
	launch: func(b *bench, ranks int, h *halter, s *session) error {
		steps := h.fixed
		if steps == 0 {
			steps = 1 << 30 // timed: the halter preempts the job
		}
		spec, err := tinyCNNSpec(b, ranks, steps)
		if err != nil {
			return err
		}
		rc := &job.RunContext{Spec: spec}
		rc.OnStep = func(rank int, step int64, st train.StepStats) {
			s.record(rank, st)
			if h.observe(rank, step) {
				rc.Preempt()
			}
		}
		res, err := job.InprocBackend{}.Run(rc)
		if err != nil {
			return err
		}
		for r, pr := range res.PerRank {
			if pr != nil {
				s.crcs[r] = pr.WeightsCRC
			}
		}
		return nil
	},
	newFleet: func(b *bench, ranks int) ([]*rankEnv, error) {
		spec, err := tinyCNNSpec(b, ranks, 1)
		if err != nil {
			return nil, err
		}
		w, err := mpi.NewWorldOpts(ranks, mpi.WorldOptions{RecvTimeout: 500 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		newModel, newOpt, newGen := spec.Factories()
		var f []*rankEnv
		for r := 0; r < ranks; r++ {
			reg := telemetry.New()
			comm := mpi.NewComm(mpi.Instrument(mpi.NewFaultTransport(w.Comm(r).Endpoint(), spec.FaultConfig()), reg))
			if err := spec.TuneComm(comm); err != nil {
				return nil, err
			}
			gen, err := newGen(r, ranks, 0)
			if err != nil {
				return nil, err
			}
			eng := spec.EngineConfig()
			eng.Telemetry = reg
			f = append(f, &rankEnv{
				rank: r, threads: spec.IntraThreads, model: newModel(), opt: newOpt(ranks), gen: gen,
				comm: comm, eng: horovod.NewEngine(comm, eng), reg: reg,
			})
		}
		return f, nil
	},
}

// tcpCycle is cmd/mpirun's default Horovod cycle time.
const tcpCycle = 3500 * time.Microsecond

// dp2ResNetTCP composes 2 ranks the way cmd/mpirun's non-elastic worker
// does — loopback TCP, a zero-rate FaultTransport, mpi.Instrument, a
// ring-only tracer feeding a flight recorder, the engine at a 3.5 ms cycle —
// and trains ResNet-18 at 8 px, batch 2, with momentum SGD at a rate whose
// loss stays finite.
var dp2ResNetTCP = &trainWorkload{
	width:       2,
	exact:       true,
	warmup:      2,
	segment:     12,
	baseSegment: 4,
	newFleet: func(b *bench, ranks int) ([]*rankEnv, error) {
		raw, err := mpi.StartLocalTCPJobOpts(ranks, mpi.TCPOptions{RecvTimeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		f := make([]*rankEnv, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f[r], errs[r] = newTCPRank(b, raw[r], r)
			}()
		}
		wg.Wait()
		return f, errors.Join(errs...)
	},
}

func newTCPRank(b *bench, raw *mpi.Comm, r int) (*rankEnv, error) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer()
	tracer.SetPID(r)
	tracer.SetFlightRecorder(telemetry.NewFlightRecorder(0), true)
	comm := mpi.NewComm(mpi.Instrument(mpi.NewFaultTransport(raw.Endpoint(), mpi.FaultConfig{Seed: b.opts.seed}), reg))
	comm.SetTelemetry(reg)
	eng := horovod.NewEngine(comm, horovod.Config{CycleTime: tcpCycle, Average: true, Telemetry: reg, Tracer: tracer})
	gen, err := data.NewLearnable(2, 3, 8, 10, data.Shard(b.opts.seed, r))
	if err != nil {
		return nil, err
	}
	return &rankEnv{
		rank: r, threads: 1,
		model: models.ResNet18(models.Config{Batch: 2, ImageSize: 8, Classes: 10, Seed: 7}),
		opt:   train.NewMomentum(0.002, 0.9),
		gen:   gen.Next, comm: comm, eng: eng, reg: reg, tracer: tracer,
	}, nil
}

// stopEngines stops every rank's engine, all ranks at once: shutdown is a
// negotiated collective.
func stopEngines(ranks []*rankEnv) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, re := range ranks {
		if re.eng == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := re.eng.Shutdown(); err != nil {
				errs[i] = fmt.Errorf("rank %d: engine shutdown: %w", re.rank, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closeComms closes every rank's transport, all at once: each close waits
// for its peers' goodbyes.
func closeComms(ranks []*rankEnv) {
	var wg sync.WaitGroup
	for _, re := range ranks {
		if re.comm == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			re.comm.Close() // a lost goodbye only delays the close
		}()
	}
	wg.Wait()
}
