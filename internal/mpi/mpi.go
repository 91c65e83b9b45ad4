// Package mpi implements a message-passing runtime in the style of MPI —
// the role MVAPICH2 plays in the reproduced paper. It provides ranked
// point-to-point messaging over two transports (in-process channels and
// TCP), and the collectives distributed DNN training needs: Barrier, Bcast,
// ring and recursive-doubling Allreduce, and Allgather.
//
// Collective algorithms are implemented once against the Endpoint interface
// so both transports share them, mirroring how MPI layers collectives over
// point-to-point transport channels. Every message travels through the one
// Endpoint.Send as a Frame: buffer ownership (pooled, zero-copy frames) and
// the causal trace context are fields of the frame, not separate send
// paths. Decorators (fault injection, instrumentation, sub-communicators)
// embed the Endpoint they wrap and override only the methods they change.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Frame is one point-to-point message.
type Frame struct {
	// Tag must match the receiver's Recv tag.
	Tag uint32
	// Buf is the payload.
	Buf []byte
	// Owned marks Buf as a FramePool buffer whose ownership passes to the
	// transport: it is consumed on every path (delivered, dropped or
	// failed) and the caller must not touch it after Send. A non-owned Buf
	// may be reused by the caller as soon as Send returns.
	Owned bool
	// Ctx is the causal trace context; the zero value sends unstamped.
	Ctx TraceCtx
}

// release returns an owned frame's buffer to the pool, for the paths that
// consume a frame without handing it to a receiver.
func (f Frame) release() {
	if f.Owned {
		sharedFramePool.Put(f.Buf)
	}
}

// Endpoint is one rank's point-to-point transport handle.
type Endpoint interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the job.
	Size() int
	// Send delivers f to rank `to`. It may block until the receiver has
	// buffer space but must not require the receiver to have posted a
	// Recv.
	Send(to int, f Frame) error
	// Recv returns the next message from rank `from`; the message's tag
	// must equal tag (our protocols are deterministic per peer pair).
	Recv(from int, tag uint32) ([]byte, error)
	// Close releases transport resources. Further calls error.
	Close() error
	// Abort tears the transport down abruptly, without a goodbye.
	Abort()
	// Subscribe diverts incoming frames carrying tag to a channel; see
	// Comm.Subscribe.
	Subscribe(tag uint32, buf int) (<-chan Tagged, error)
	// SetTraceSink installs (nil: clears) the receive-side observer of
	// stamped frames.
	SetTraceSink(TraceSink)
	// Membership returns the transport's regrow capabilities, or nil when
	// it needs none (in-process mailboxes always exist).
	Membership() Membership
}

// Membership is the transport side of the regrow protocol (Comm.Grow,
// Rejoin): re-establishing connections to crashed or partitioned peers.
// TCP implements it.
type Membership interface {
	// EnableRejoin arms the acceptor that readmits peers' fresh
	// connections. Idempotent.
	EnableRejoin()
	// RedialPeer connects to peer's listener (empty addr: the retained
	// table's entry), retrying until timeout. A live peer is a no-op.
	RedialPeer(peer int, addr string, timeout time.Duration) error
	// ReadmitWait blocks until peer's slot is live again or timeout.
	ReadmitWait(peer int, timeout time.Duration) error
	// PeerAddrs returns a copy of the peer address table.
	PeerAddrs() []string
	// SetPeerAddr updates one entry of the address table.
	SetPeerAddr(rank int, addr string)
}

// Comm wraps an Endpoint with collective operations.
type Comm struct {
	ep   Endpoint
	alg  AllreduceAlg   // communicator-wide default (SetAllreduceAlg)
	tele *commTelemetry // per-algorithm counters (SetTelemetry)

	pool     *FramePool // frame-buffer allocator (SetFramePool)
	segBytes int        // ring pipelining segment (SetSegmentBytes)

	// Pipelined-ring scratch, lazily built and reused across calls.
	// Collectives on one communicator are caller-serialized (MPI
	// semantics), so these need no lock.
	rs          *ringState
	boundsCache []int

	// flow is the causal-tracing state (SetFlowTracer); nil when tracing is
	// off, making the stamped-send check a single pointer test. Like the
	// ring scratch it is only touched on the collective caller's goroutine.
	// Deliberately not inherited by derive: a shrunk or split communicator's
	// owner re-arms tracing against the new endpoint.
	flow *flowState
}

// NewComm wraps ep in a Comm.
func NewComm(ep Endpoint) *Comm { return &Comm{ep: ep, pool: &sharedFramePool} }

// derive wraps ep in a sub-communicator that inherits the parent's
// algorithm selection, frame pool and segment size — pinned behavior: a
// communicator derived by Split or Shrink must reproduce the parent's
// tuning, so AllreduceAlgorithm() and SegmentBytes() are preserved (a
// regression test asserts this). The one exception is a forced
// recursive-doubling parent deriving a non-power-of-two child (e.g. a
// 4-rank job shrinking to 3 survivors): the inherited algorithm would make
// every Allreduce fail, so it demotes to AlgAuto. Telemetry is
// deliberately not inherited; see SetTelemetry.
func (c *Comm) derive(ep Endpoint) *Comm {
	alg := c.alg
	if alg == AlgRecursiveDoubling && !isPow2(ep.Size()) {
		alg = AlgAuto
	}
	return &Comm{ep: ep, alg: alg, pool: c.pool, segBytes: c.segBytes}
}

// SetFramePool gives the communicator a private frame-buffer pool instead
// of the process-wide shared one. Frames migrate freely between pools (see
// FramePool), so this is an isolation/accounting knob, not a correctness
// one.
func (c *Comm) SetFramePool(p *FramePool) {
	if p != nil {
		c.pool = p
	}
}

// FramePool returns the communicator's frame-buffer pool.
func (c *Comm) FramePool() *FramePool { return c.pool }

// SetSegmentBytes sets the pipelining segment size for the chunked ring
// allreduce. Values below 256 are clamped; 0 restores DefaultSegmentBytes.
func (c *Comm) SetSegmentBytes(n int) {
	switch {
	case n <= 0:
		c.segBytes = 0
	case n < 256:
		c.segBytes = 256
	default:
		c.segBytes = n
	}
}

// SegmentBytes returns the effective ring pipelining segment size.
func (c *Comm) SegmentBytes() int { return c.segmentBytes() }

func (c *Comm) segmentBytes() int {
	if c.segBytes > 0 {
		return c.segBytes
	}
	return DefaultSegmentBytes
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the job size.
func (c *Comm) Size() int { return c.ep.Size() }

// Close closes the underlying endpoint. Transports with a graceful
// teardown (TCP) send a goodbye frame and drain in-flight traffic first.
func (c *Comm) Close() error { return c.ep.Close() }

// Endpoint returns the underlying transport endpoint, e.g. to wrap it in a
// FaultTransport.
func (c *Comm) Endpoint() Endpoint { return c.ep }

// Abort tears the transport down abruptly, skipping any goodbye handshake —
// the MPI_Abort analogue, used to model a crashed rank in failure-path
// tests and demos. Endpoints without a distinct abrupt path just Close.
func (c *Comm) Abort() { c.ep.Abort() }

// Send delivers raw bytes to a peer.
func (c *Comm) Send(to int, tag uint32, payload []byte) error {
	return c.ep.Send(to, Frame{Tag: tag, Buf: payload})
}

// Recv receives raw bytes from a peer.
func (c *Comm) Recv(from int, tag uint32) ([]byte, error) { return c.ep.Recv(from, tag) }

// SendFloats delivers a float32 vector to a peer.
func (c *Comm) SendFloats(to int, tag uint32, data []float32) error {
	return c.Send(to, tag, floatsToBytes(data))
}

// RecvFloats receives a float32 vector from a peer.
func (c *Comm) RecvFloats(from int, tag uint32) ([]float32, error) {
	b, err := c.ep.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return bytesToFloats(b)
}

func floatsToBytes(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func bytesToFloats(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: float payload length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// Tagged is one out-of-band message delivered through a tag subscription
// (Comm.Subscribe): the sender's rank in the subscribing communicator's
// numbering plus the raw payload.
type Tagged struct {
	From    int
	Payload []byte
}

// Subscribe diverts every future incoming frame carrying tag into the
// returned channel instead of the Recv path, so a side channel (telemetry
// pushes) can share the transport with collectives without violating the
// sequential-Recv-per-peer rule. The channel is buffered with buf slots;
// frames arriving while it is full are dropped — subscriptions are for
// lossy, latest-wins traffic, never for protocol frames. The channel is
// never closed; stop reading when the job is done. Only one subscription
// per tag is allowed, and the tag must be below TagBase. A subscription is
// transport-level: made through a sub-communicator, its tag is not
// namespaced and Tagged.From carries the root transport's numbering.
func (c *Comm) Subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	if tag >= TagBase {
		return nil, fmt.Errorf("mpi: subscribe tag %#x is in the collective tag space", tag)
	}
	return c.ep.Subscribe(tag, buf)
}

// Tag spaces for the built-in protocols. User messages should use tags
// below TagBase.
const (
	// TagTelemetry is the conventional side-channel tag for live telemetry
	// pushes (telemetry.Publisher -> the rank-0 metrics server).
	TagTelemetry uint32 = 0x0054454c // "TEL"

	// TagJoin is the side-channel tag a healed or restarted process sends
	// join requests on (mpi.Rejoin -> the leader's JoinListener). Like all
	// sub-TagBase tags it is lossy by design: joiners retry with backoff.
	TagJoin uint32 = 0x004a4f49 // "JOI"

	// TagJoinReply is the side-channel tag the leader answers join requests
	// on (admit, stale-epoch refresh, or permanent rejection).
	TagJoinReply uint32 = 0x004a5250 // "JRP"

	// TagBase is the first tag reserved for collective protocols.
	TagBase uint32 = 1 << 24

	tagBarrier   = TagBase + 0x010000
	tagBcast     = TagBase + 0x020000
	tagAllreduce = TagBase + 0x030000
	tagAllgather = TagBase + 0x040000
	tagGather    = TagBase + 0x050000
	// tagShrink namespaces the survivor-agreement protocol: 16 tags per
	// epoch (rounds + commit), up to 4096 epochs within the window.
	tagShrink = TagBase + 0x060000
	// tagGrow namespaces the two-phase admit protocol (propose, ack): 16
	// tags per epoch, sharing the shrink epoch space.
	tagGrow = TagBase + 0x070000
)
