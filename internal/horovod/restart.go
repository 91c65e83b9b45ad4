package horovod

import (
	"errors"

	"dnnperf/internal/mpi"
)

// Elastic restart support: after a rank failure the surviving ranks shrink
// the communicator (mpi.Comm.Shrink) and re-create their engines on it.
// The old engine's background loop has usually already died on the typed
// transport failure; Shutdown makes that deterministic, and Restart drains
// whatever the dead loop left latched before starting a fresh loop on the
// new communicator.

// ErrRestarted completes tensors that were still queued or in flight when
// the engine was restarted onto a new communicator. Their reductions never
// ran; the training step that submitted them must be re-executed from a
// checkpoint.
var ErrRestarted = errors.New("horovod: engine restarted onto a new communicator")

// Restart builds a fresh engine on comm, carrying over the configuration
// and cumulative profiling counters. The old engine is shut down first if
// it is not already down; tensors it still held complete with ErrRestarted
// (their reductions never happened — the caller re-runs the step from a
// checkpoint). The response cache is rebuilt from scratch: cache ids were
// assigned in negotiation order on the old communicator, and the shrunk
// job's ranks must re-derive them together.
func (e *Engine) Restart(comm *mpi.Comm) *Engine {
	e.Shutdown()

	e.mu.Lock()
	for _, p := range e.inFlight {
		p.done(ErrRestarted)
		e.tl.abort(p.name)
	}
	for _, p := range e.submitted {
		p.done(ErrRestarted)
		e.tl.abort(p.name)
	}
	e.inFlight = map[string]*pendingTensor{}
	e.submitted = nil
	buf := e.fusedBuf
	e.fusedBuf = nil
	e.mu.Unlock()

	// The new engine shares the old one's telemetry handles, so the
	// profiling counters stay cumulative across restarts.
	e.met.restarts.Inc()
	ne := &Engine{
		comm:        comm,
		cfg:         e.cfg,
		met:         e.met,
		tracer:      e.tracer,
		tl:          e.tl, // timeline lanes persist across restarts
		inFlight:    make(map[string]*pendingTensor),
		cacheByName: make(map[string]uint32),
		fusedBuf:    buf,
		wake:        make(chan struct{}, 1),
		loopDone:    make(chan struct{}),

		// Grow directives do not carry across restarts: the restart IS the
		// membership change the directive was announcing.
		announceGrowEpoch: -1,
		gotGrowEpoch:      -1,
	}
	if ne.cfg.SegmentBytes > 0 {
		comm.SetSegmentBytes(ne.cfg.SegmentBytes)
	}
	ne.step.Store(e.step.Load())
	comm.SetFlowTracer(ne.tracer)
	go ne.loop()
	return ne
}
