package mpi

import (
	"encoding/binary"

	"dnnperf/internal/telemetry"
)

// TraceCtx is the compact causal context a collective stamps on its frames:
// enough to link the sending rank's span to the receiving rank's span in a
// merged trace without any out-of-band correlation. It rides inside the
// transport frame (a flag bit plus traceCtxBytes on TCP, a struct field
// in-process), so propagation costs nothing when tracing is off and one
// small header when on.
type TraceCtx struct {
	// Step is the training step the collective belongs to (0 = unknown;
	// engine-level collectives outside a step keep it 0).
	Step uint32
	// Coll is the origin rank's collective sequence number — the
	// tensor/collective id within the run.
	Coll uint32
	// Origin is the rank that emitted the frame.
	Origin uint32
	// Span is the globally-unique flow id ((origin+1)<<32 | coll). The
	// origin's flow-start and every receiver's flow-finish carrying this id
	// render as one causal arrow across rank lanes.
	Span uint64
}

// traceCtxBytes is the wire size of an encoded TraceCtx.
const traceCtxBytes = 20

func (tc TraceCtx) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], tc.Step)
	binary.LittleEndian.PutUint32(dst[4:], tc.Coll)
	binary.LittleEndian.PutUint32(dst[8:], tc.Origin)
	binary.LittleEndian.PutUint64(dst[12:], tc.Span)
}

func decodeTraceCtx(src []byte) TraceCtx {
	return TraceCtx{
		Step:   binary.LittleEndian.Uint32(src[0:]),
		Coll:   binary.LittleEndian.Uint32(src[4:]),
		Origin: binary.LittleEndian.Uint32(src[8:]),
		Span:   binary.LittleEndian.Uint64(src[12:]),
	}
}

// TraceSink receives the context of every stamped frame a transport
// delivers through its Recv path (subscription side channels excluded).
type TraceSink func(from int, tag uint32, ctx TraceCtx)

// flowState is the communicator's causal-tracing state. It is touched only
// on the collective caller's goroutine (collectives on one communicator are
// caller-serialized), so it needs no lock.
type flowState struct {
	tr  *telemetry.Tracer
	seq uint32
	cur TraceCtx
	// sent marks peers already stamped during the current collective: one
	// flow arrow per (origin, collective, peer), not one per segment.
	sent []bool
}

// SetFlowTracer enables cross-rank causal tracing on this communicator:
// collective sends stamp a TraceCtx into their frames and record flow-start
// events, and stamped frames received from peers record flow-finish events
// bound to whatever span is open when they arrive. Pass nil to disable.
// Every transport carries the context (a struct field in-process, the
// stamped wire frame on TCP), through any stack of decorators and derived
// communicators.
func (c *Comm) SetFlowTracer(tr *telemetry.Tracer) {
	if tr == nil {
		c.flow = nil
		c.ep.SetTraceSink(nil)
		return
	}
	c.flow = &flowState{tr: tr, sent: make([]bool, c.ep.Size())}
	c.ep.SetTraceSink(func(from int, tag uint32, ctx TraceCtx) {
		tr.FlowFinish("mpi.flow", "flow", telemetry.CommLane, ctx.Span)
	})
}

// BeginFlow opens a causally-traced collective: until EndFlow, the first
// frame sent to each peer carries the new context and records a flow-start.
// step annotates the context (0 when the caller has no step number). No-op
// unless SetFlowTracer armed the communicator.
func (c *Comm) BeginFlow(step int64) {
	f := c.flow
	if f == nil {
		return
	}
	f.seq++
	origin := uint32(c.ep.Rank())
	f.cur = TraceCtx{
		Step:   uint32(step),
		Coll:   f.seq,
		Origin: origin,
		Span:   uint64(origin+1)<<32 | uint64(f.seq),
	}
	if n := c.ep.Size(); n != len(f.sent) {
		f.sent = make([]bool, n)
	} else {
		for i := range f.sent {
			f.sent[i] = false
		}
	}
}

// EndFlow closes the current causally-traced collective.
func (c *Comm) EndFlow() {
	if f := c.flow; f != nil {
		f.cur = TraceCtx{}
	}
}

// flowCtx returns the context to stamp on a frame to peer `to`, marking the
// peer stamped and recording the flow-start. The second return is false
// when no flow is open or the peer already got its arrow.
func (c *Comm) flowCtx(to int) (TraceCtx, bool) {
	f := c.flow
	if f == nil || f.cur.Span == 0 || to < 0 || to >= len(f.sent) || f.sent[to] {
		return TraceCtx{}, false
	}
	f.sent[to] = true
	f.tr.FlowStart("mpi.flow", "flow", telemetry.CommLane, f.cur.Span)
	return f.cur, true
}

// send is the one collective send path: f goes to the endpoint, stamped
// with the open flow's context when it is the collective's first frame to
// that peer.
func (c *Comm) send(to int, f Frame) error {
	if ctx, ok := c.flowCtx(to); ok {
		f.Ctx = ctx
	}
	return c.ep.Send(to, f)
}
