package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// WorldOptions configures the in-process transport.
type WorldOptions struct {
	// RecvTimeout bounds each Recv; an expiry yields a typed *PeerError
	// with ErrTimeout, matching the TCP transport. Zero (the default)
	// blocks forever, preserving the seed behavior.
	RecvTimeout time.Duration
}

// World is an in-process MPI job: n ranks connected through buffered
// channels. It models the paper's multi-process (MP) single-node
// configuration without OS processes, which lets tests run hundreds of
// "ranks" cheaply.
type World struct {
	n     int
	opts  WorldOptions
	boxes [][]chan Frame // boxes[to][from]; Frame.Ctx survives queueing
	once  []sync.Once

	subMu sync.RWMutex
	subs  []map[uint32]chan Tagged // per destination rank: tag -> channel
}

// subscribe registers a tag side channel for rank (inprocEndpoint.Subscribe).
// Senders route matching messages into it instead of the rank's mailbox.
func (w *World) subscribe(rank int, tag uint32, buf int) (<-chan Tagged, error) {
	if buf < 1 {
		buf = 64
	}
	w.subMu.Lock()
	defer w.subMu.Unlock()
	if w.subs == nil {
		w.subs = make([]map[uint32]chan Tagged, w.n)
	}
	if w.subs[rank] == nil {
		w.subs[rank] = make(map[uint32]chan Tagged)
	}
	if _, dup := w.subs[rank][tag]; dup {
		return nil, fmt.Errorf("mpi: rank %d tag %#x already subscribed", rank, tag)
	}
	ch := make(chan Tagged, buf)
	w.subs[rank][tag] = ch
	return ch, nil
}

// subDeliver routes a message to rank `to`'s subscription for tag, if one
// exists. Non-blocking: a full subscriber drops, matching the lossy
// side-channel contract of the TCP transport.
func (w *World) subDeliver(to, from int, tag uint32, payload []byte) bool {
	w.subMu.RLock()
	var ch chan Tagged
	if w.subs != nil && w.subs[to] != nil {
		ch = w.subs[to][tag]
	}
	w.subMu.RUnlock()
	if ch == nil {
		return false
	}
	select {
	case ch <- Tagged{From: from, Payload: payload}:
	default:
	}
	return true
}

// NewWorld creates an n-rank in-process job with default options.
func NewWorld(n int) (*World, error) { return NewWorldOpts(n, WorldOptions{}) }

// NewWorldOpts creates an n-rank in-process job with explicit options.
func NewWorldOpts(n int, opts WorldOptions) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	w := &World{n: n, opts: opts, boxes: make([][]chan Frame, n), once: make([]sync.Once, n)}
	for to := 0; to < n; to++ {
		w.boxes[to] = make([]chan Frame, n)
		for from := 0; from < n; from++ {
			w.boxes[to][from] = make(chan Frame, 1024)
		}
	}
	return w, nil
}

// Size returns the job size.
func (w *World) Size() int { return w.n }

// Comm returns rank r's communicator.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.n))
	}
	return NewComm(&inprocEndpoint{w: w, rank: r, pending: make(map[int][]Frame)})
}

// Rejoin returns a fresh communicator for a rank whose previous endpoint
// was closed or abandoned (the in-process analogue of a process restart):
// its inbound mailboxes are drained of stale frames and its tag
// subscriptions cleared, so the new incarnation starts clean and can
// re-subscribe. Only call after the rank's previous incarnation has stopped
// — live peers' mailboxes to other ranks are untouched.
func (w *World) Rejoin(r int) *Comm {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.n))
	}
	for from := 0; from < w.n; from++ {
		for {
			select {
			case <-w.boxes[r][from]:
			default:
			}
			if len(w.boxes[r][from]) == 0 {
				break
			}
		}
	}
	w.subMu.Lock()
	if w.subs != nil {
		w.subs[r] = nil
	}
	w.subMu.Unlock()
	return w.Comm(r)
}

// Run spawns fn for every rank on its own goroutine and waits for all to
// return, collecting the first non-nil error.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	for r := 0; r < w.n; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

type inprocEndpoint struct {
	w       *World
	rank    int
	closed  bool
	mu      sync.Mutex
	pending map[int][]Frame // from -> out-of-tag frames awaiting a match
	sink    atomic.Pointer[TraceSink]
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.w.n }

// Send queues f in the receiver's mailbox. An owned frame goes in as is —
// in-process a collective segment is zero-copy from serialization to
// reduce — and any other buffer is copied so the sender may reuse it at
// once (MPI semantics).
func (e *inprocEndpoint) Send(to int, f Frame) error {
	if err := e.check(to); err != nil {
		f.release()
		return err
	}
	if !f.Owned {
		f.Buf = append([]byte(nil), f.Buf...)
	}
	// Subscribers own delivered payloads indefinitely (and a full
	// subscriber drops); either way an owned frame leaves the pool's
	// accounting — sync.Pool makes that a GC matter, not a leak.
	if e.w.subDeliver(to, e.rank, f.Tag, f.Buf) {
		return nil
	}
	e.w.boxes[to][e.rank] <- f
	return nil
}

// SetTraceSink installs the receive-side causal-trace observer.
func (e *inprocEndpoint) SetTraceSink(sink TraceSink) {
	if sink == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&sink)
}

// observe reports a delivered stamped frame to the trace sink, if any.
func (e *inprocEndpoint) observe(from int, m Frame) {
	if m.Ctx.Span == 0 {
		return
	}
	if s := e.sink.Load(); s != nil {
		(*s)(from, m.Tag, m.Ctx)
	}
}

// Subscribe registers a tag side channel for this rank in the world, so
// senders deliver matching messages out of band (see Comm.Subscribe).
func (e *inprocEndpoint) Subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	return e.w.subscribe(e.rank, tag, buf)
}

// Membership is nil: in-process mailboxes never need re-establishing.
func (e *inprocEndpoint) Membership() Membership { return nil }

// Recv returns the next message from the peer carrying tag. Messages with
// other tags are queued for their own Recv instead of being dropped; an
// expired RecvTimeout yields a typed *PeerError, matching the TCP
// transport's semantics.
func (e *inprocEndpoint) Recv(from int, tag uint32) ([]byte, error) {
	if err := e.check(from); err != nil {
		return nil, err
	}
	e.mu.Lock()
	for i, m := range e.pending[from] {
		if m.Tag == tag {
			q := e.pending[from]
			e.pending[from] = append(q[:i:i], q[i+1:]...)
			e.mu.Unlock()
			e.observe(from, m)
			return m.Buf, nil
		}
	}
	e.mu.Unlock()
	var timeout <-chan time.Time
	if d := e.w.opts.RecvTimeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		select {
		case m, ok := <-e.w.boxes[e.rank][from]:
			if !ok {
				return nil, fmt.Errorf("mpi: rank %d mailbox from %d closed", e.rank, from)
			}
			if m.Tag == tag {
				e.observe(from, m)
				return m.Buf, nil
			}
			e.mu.Lock()
			e.pending[from] = append(e.pending[from], m)
			e.mu.Unlock()
		case <-timeout:
			return nil, &PeerError{Rank: from, Op: OpRecv, Err: ErrTimeout}
		}
	}
}

func (e *inprocEndpoint) check(peer int) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("mpi: rank %d endpoint is closed", e.rank)
	}
	if peer < 0 || peer >= e.w.n {
		return fmt.Errorf("mpi: peer %d out of range [0,%d)", peer, e.w.n)
	}
	if peer == e.rank {
		return fmt.Errorf("mpi: rank %d self-messaging is not supported", e.rank)
	}
	return nil
}

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("mpi: rank %d double close", e.rank)
	}
	e.closed = true
	return nil
}

// Abort is Close: an in-process rank has no goodbye to skip.
func (e *inprocEndpoint) Abort() { e.Close() }
