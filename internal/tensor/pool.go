package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool used for intra-op parallelism: a single
// tensor kernel splits its index space into ranges and executes them on the
// pool's workers. It mirrors the role of the "intra-op" thread pool that the
// -num_intra_threads flag controls in tf_cnn_benchmarks.
//
// A pool of size n uses n-1 persistent worker goroutines plus the calling
// goroutine, so n is the true compute width. Work is distributed by an
// atomic range counter over chunks that over-decompose the index space 4×
// (see Run), which load-balances uneven kernels without per-chunk channel
// traffic: publishing a kernel costs one small allocation and at most
// size-1 channel sends, regardless of chunk count.
//
// A Pool with size 1 executes everything inline on the calling goroutine,
// so single-threaded runs have no scheduling overhead.
type Pool struct {
	size  int
	jobs  chan *job
	once  *sync.Once
	arena *Arena
}

// job is one published kernel launch: executors race on the atomic chunk
// counter until the index space is exhausted. The job is never recycled —
// a worker that dequeues it after completion simply finds no chunks left.
//
// The claim counter and the completion WaitGroup are each padded onto their
// own cache line: every chunk claim hammers next and every chunk completion
// hammers wg's counter, and with both on the line that also holds the
// read-only launch fields (fn/n/step/chunks, reloaded by every executor per
// chunk) the line ping-pongs between cores — classic false sharing, one of
// the thread-scaling walls this kernel pool hit.
type job struct {
	fn     func(start, end int)
	n      int
	step   int
	chunks int32

	_    [64]byte // isolate the claim counter
	next atomic.Int32
	_    [60]byte // isolate the completion counter
	wg   sync.WaitGroup
}

// run claims chunks until none remain. It is executed concurrently by the
// publishing goroutine and any workers that picked the job up.
func (j *job) run() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		s := int(c) * j.step
		e := s + j.step
		if e > j.n {
			e = j.n
		}
		j.fn(s, e)
		j.wg.Done()
	}
}

// NewPool creates a pool with n workers. n < 1 is treated as 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n, once: new(sync.Once)}
	if n > 1 {
		p.jobs = make(chan *job, 2*n)
		for i := 0; i < n-1; i++ {
			go p.worker()
		}
	}
	return p
}

// Default returns a pool sized to the machine's logical CPU count.
func Default() *Pool { return NewPool(runtime.NumCPU()) }

// Size returns the pool's compute width (workers plus the caller).
func (p *Pool) Size() int { return p.size }

// WithArena returns a view of p whose kernels allocate outputs and scratch
// from a: the graph executor attaches its recycling arena this way. The
// view shares p's workers; Close must still be called on p itself (Close on
// the view is a no-op), and the arena must be safe for concurrent use
// (Arena is).
func (p *Pool) WithArena(a *Arena) *Pool {
	return &Pool{size: p.size, jobs: p.jobs, once: nil, arena: a}
}

// Arena returns the arena attached via WithArena, or nil.
func (p *Pool) Arena() *Arena { return p.arena }

// alloc returns a zeroed tensor from the attached arena, or a fresh one.
func (p *Pool) alloc(shape ...int) *Tensor {
	if p.arena != nil {
		return p.arena.Get(shape...)
	}
	return New(shape...)
}

// bnState returns an empty BatchNormState, header-recycled when an arena is
// attached.
func (p *Pool) bnState() *BatchNormState {
	if p.arena != nil {
		return p.arena.GetBNState()
	}
	return &BatchNormState{}
}

// scratch returns a zeroed kernel scratch buffer. Pools without an arena
// fall back to the shared kernelScratch arena so scratch is recycled even
// for stand-alone kernel calls.
func (p *Pool) scratch(n int) []float32 {
	if p.arena != nil {
		return p.arena.GetScratch(n)
	}
	return kernelScratch.GetScratch(n)
}

// putScratch returns a buffer obtained from scratch.
func (p *Pool) putScratch(s []float32) {
	if p.arena != nil {
		p.arena.PutScratch(s)
		return
	}
	kernelScratch.PutScratch(s)
}

// recycle parks an intermediate tensor the kernel no longer needs. Without
// an arena it is a no-op (the garbage collector takes over).
func (p *Pool) recycle(t *Tensor) {
	if p.arena != nil {
		p.arena.Put(t)
	}
}

func (p *Pool) worker() {
	for j := range p.jobs {
		j.run()
	}
}

// Close shuts down the pool's workers. The pool must not be used afterwards.
// Close is idempotent, a no-op for size-1 pools, and a no-op on WithArena
// views (the owning pool closes the workers).
func (p *Pool) Close() {
	if p.once == nil {
		return
	}
	p.once.Do(func() {
		if p.jobs != nil {
			close(p.jobs)
		}
	})
}

// overDecompose is the chunk over-decomposition factor: Run splits the
// index space into up to overDecompose×size chunks (grain permitting), so
// an executor that lands a slow chunk simply claims fewer chunks while the
// others drain the rest. With exactly size chunks (the old behavior) one
// slow worker stalls the whole kernel.
const overDecompose = 4

// Run executes fn(start, end) over [0, n) split into contiguous chunks of
// at least grain elements and waits for completion. Chunks are claimed off
// an atomic counter by the pool's workers and the calling goroutine, which
// always participates — completion never depends on worker availability, so
// nested Run calls cannot deadlock. fn may be invoked more times than the
// pool has workers (see overDecompose); it must not assume at most Size()
// invocations. With a size-1 pool (or n <= grain) fn runs inline.
func (p *Pool) Run(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	chunks, step := p.split(n, grain)
	if chunks == 1 {
		fn(0, n)
		return
	}
	j := &job{fn: fn, n: n, step: step, chunks: int32(chunks)}
	j.wg.Add(chunks)

	// Wake at most size-1 workers, one token each; skip when the queue is
	// full (they are busy — the counter lets them join late anyway).
	wake := chunks - 1
	if wake > p.size-1 {
		wake = p.size - 1
	}
publish:
	for i := 0; i < wake; i++ {
		select {
		case p.jobs <- j:
		default:
			break publish
		}
	}
	j.run()
	j.wg.Wait()
}

// split returns Run's chunking of [0, n): chunk c covers [c·step,
// min((c+1)·step, n)). It depends only on n, grain and the pool size, so a
// caller can index per-chunk state by start/step.
func (p *Pool) split(n, grain int) (chunks, step int) {
	maxChunks := (n + max(grain, 1) - 1) / max(grain, 1)
	if p.size == 1 || maxChunks == 1 {
		return 1, n
	}
	chunks = min(overDecompose*p.size, maxChunks)
	step = (n + chunks - 1) / chunks
	return (n + step - 1) / step, step // drop empty tail chunks after rounding
}

// Serial is a shared size-1 pool for callers that want inline execution.
var Serial = NewPool(1)
