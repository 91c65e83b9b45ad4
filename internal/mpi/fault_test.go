package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dnnperf/internal/telemetry"
)

// faultWorld builds an n-rank in-process job with a Recv deadline and a
// FaultTransport per rank; mutate lets the test partition or reconfigure
// individual ranks before use.
func faultWorld(t *testing.T, n int, cfg FaultConfig, recvTimeout time.Duration) ([]*Comm, []*FaultTransport) {
	t.Helper()
	w, err := NewWorldOpts(n, WorldOptions{RecvTimeout: recvTimeout})
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, n)
	faults := make([]*FaultTransport, n)
	for r := 0; r < n; r++ {
		faults[r] = NewFaultTransport(w.Comm(r).Endpoint(), cfg)
		comms[r] = NewComm(faults[r])
	}
	return comms, faults
}

// An inproc Recv with nobody sending must resolve to a typed timeout.
func TestInprocRecvTimeout(t *testing.T) {
	w, err := NewWorldOpts(2, WorldOptions{RecvTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, rerr := w.Comm(1).Recv(0, 3)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 || !pe.Timeout() {
		t.Fatalf("want typed timeout from rank 0, got %v", rerr)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout fired far past the deadline")
	}
}

// A partition is observed by the far side as a Recv deadline expiry with
// the partitioned peer's rank — the typed form the Horovod engine and
// collectives propagate.
func TestFaultPartitionYieldsTypedTimeout(t *testing.T) {
	comms, faults := faultWorld(t, 2, FaultConfig{}, 80*time.Millisecond)
	faults[0].Partition(1)

	if err := comms[0].Send(1, 9, []byte{1}); err != nil {
		t.Fatalf("partitioned send must drop silently, got %v", err)
	}
	_, err := comms[1].Recv(0, 9)
	pe, ok := AsPeerError(err)
	if !ok || pe.Rank != 0 || pe.Op != OpRecv || !pe.Timeout() {
		t.Fatalf("want typed timeout from rank 0, got %v", err)
	}
	if got := faults[0].Stats().Blocked; got != 1 {
		t.Fatalf("Blocked = %d, want 1", got)
	}

	// Heal and verify traffic flows again.
	faults[0].Heal(1)
	if err := comms[0].Send(1, 10, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if b, err := comms[1].Recv(0, 10); err != nil || len(b) != 1 {
		t.Fatalf("post-heal recv: %v %v", b, err)
	}
}

// A partition inside a collective: every rank resolves to an error (typed
// on the ranks that observe the cut) instead of deadlocking the ring.
func TestFaultPartitionFailsAllreduce(t *testing.T) {
	const n = 4
	comms, faults := faultWorld(t, n, FaultConfig{}, 150*time.Millisecond)
	faults[0].Partition(1) // sever the ring between 0 and 1

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float32, 64)
			errs[r] = comms[r].AllreduceRing(buf, OpSum)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partitioned allreduce deadlocked")
	}
	typed := 0
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d completed an allreduce across a partition", r)
		}
		if _, ok := AsPeerError(err); ok {
			typed++
		}
	}
	if typed != n {
		t.Fatalf("only %d/%d ranks saw a typed PeerError", typed, n)
	}
}

// Same seed, same rank, same config: the injected fault sequence is
// identical — the property that makes failure tests reproducible.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (FaultStats, []int) {
		w, _ := NewWorldOpts(2, WorldOptions{RecvTimeout: time.Second})
		ft := NewFaultTransport(w.Comm(0).Endpoint(), FaultConfig{Seed: 42, DropProb: 0.5})
		var droppedAt []int
		for i := 0; i < 64; i++ {
			before := ft.Stats().Dropped
			if err := ft.Send(1, Frame{Tag: uint32(i), Buf: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
			if ft.Stats().Dropped > before {
				droppedAt = append(droppedAt, i)
			}
		}
		return ft.Stats(), droppedAt
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Sent == 0 {
		t.Fatalf("expected both drops and deliveries at p=0.5, got %+v", s1)
	}
	if fmt.Sprint(d1) != fmt.Sprint(d2) {
		t.Fatalf("drop positions diverged: %v vs %v", d1, d2)
	}
}

// Delayed sends still deliver, after the configured latency.
func TestFaultDelayDelivers(t *testing.T) {
	comms, faults := faultWorld(t, 2, FaultConfig{DelayProb: 1, Delay: 30 * time.Millisecond}, time.Second)
	start := time.Now()
	if err := comms[0].Send(1, 1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	b, err := comms[1].Recv(0, 1)
	if err != nil || len(b) != 1 || b[0] != 9 {
		t.Fatalf("delayed frame corrupted: %v %v", b, err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
	if got := faults[0].Stats().Delayed; got != 1 {
		t.Fatalf("Delayed = %d, want 1", got)
	}
}

// Duplicated frames are absorbed by the out-of-tag queue within one
// collective: a full ring allreduce under 100% duplication still produces
// the exact sums.
func TestFaultDuplicatesAbsorbedByTagQueue(t *testing.T) {
	const n = 3
	comms, faults := faultWorld(t, n, FaultConfig{Seed: 7, DupProb: 1}, time.Second)
	errs := make([]error, n)
	bufs := make([][]float32, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float32, 50)
			for i := range buf {
				buf[i] = float32(r)
			}
			bufs[r] = buf
			errs[r] = comms[r].AllreduceRing(buf, OpSum)
		}(r)
	}
	wg.Wait()
	want := float32(n * (n - 1) / 2)
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i, v := range bufs[r] {
			if v != want {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, v, want)
			}
		}
		if faults[r].Stats().Duplicated == 0 {
			t.Fatalf("rank %d injected no duplicates", r)
		}
	}
}

// FaultTransport composes with the TCP transport the same way it does with
// inproc: a partition over real sockets resolves to a typed timeout.
func TestFaultTransportOverTCP(t *testing.T) {
	raw, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range raw {
			c.Close()
		}
	}()
	ft0 := NewFaultTransport(raw[0].Endpoint(), FaultConfig{})
	ft0.Partition(1)
	c0, c1 := NewComm(ft0), NewComm(NewFaultTransport(raw[1].Endpoint(), FaultConfig{}))

	if err := c0.Send(1, 2, []byte{1}); err != nil {
		t.Fatalf("partitioned send: %v", err)
	}
	_, rerr := c1.Recv(0, 2)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 || !pe.Timeout() {
		t.Fatalf("want typed timeout over TCP, got %v", rerr)
	}
}

// Abort through a FaultTransport reaches the inner endpoint's abrupt path.
func TestFaultTransportForwardsAbort(t *testing.T) {
	raw, err := StartLocalTCPJobOpts(2, fastTCPOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer raw[1].Close()
	NewComm(NewFaultTransport(raw[0].Endpoint(), FaultConfig{})).Abort()
	_, rerr := raw[1].Recv(0, 1)
	pe, ok := AsPeerError(rerr)
	if !ok || pe.Rank != 0 {
		t.Fatalf("want typed error after abort, got %v", rerr)
	}
	if errors.Is(pe.Err, ErrPeerClosed) {
		t.Fatal("abort must not look like a graceful goodbye")
	}
}

// faultStack wraps every rank of an n-rank job in
// Instrument(NewFaultTransport(...)), the composition mpirun and the
// benchmark workloads use, over the in-process or the TCP transport.
func faultStack(t *testing.T, transport string, n int, cfg FaultConfig) ([]*Comm, []*FaultTransport, []*telemetry.Registry) {
	t.Helper()
	raw := make([]Endpoint, n)
	switch transport {
	case "inproc":
		w, err := NewWorldOpts(n, WorldOptions{RecvTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for r := range raw {
			raw[r] = w.Comm(r).Endpoint()
		}
	case "tcp":
		comms, err := StartLocalTCPJobOpts(n, fastTCPOpts())
		if err != nil {
			t.Fatal(err)
		}
		for r := range raw {
			raw[r] = comms[r].Endpoint()
		}
	}
	comms := make([]*Comm, n)
	faults := make([]*FaultTransport, n)
	regs := make([]*telemetry.Registry, n)
	for r := range raw {
		faults[r] = NewFaultTransport(raw[r], cfg)
		regs[r] = telemetry.New()
		comms[r] = NewComm(Instrument(faults[r], regs[r]))
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.Abort()
		}
	})
	return comms, faults, regs
}

// flowTally counts the causal flow starts and finishes per flow id over
// the given tracers.
func flowTally(tracers ...*telemetry.Tracer) map[uint64][2]int {
	ids := map[uint64][2]int{}
	for _, tr := range tracers {
		for _, ev := range tr.Events() {
			if ev.Name != "mpi.flow" {
				continue
			}
			c := ids[ev.ID]
			switch ev.Ph {
			case "s":
				c[0]++
			case "f":
				c[1]++
			}
			ids[ev.ID] = c
		}
	}
	return ids
}

// checkPoolClassDistinct drains the shared pool's size class for n-byte
// frames and fails if any buffer comes out twice: a frame returned to a
// pool more than once would be handed to two owners at the same time.
// Draining stops at the first allocating Get; a GC in between can only
// hide a duplicate, never invent one.
func checkPoolClassDistinct(t *testing.T, n int) {
	t.Helper()
	seen := map[*byte]bool{}
	for i := 0; i < 1<<14; i++ {
		misses := sharedFramePool.Stats().Misses
		b := sharedFramePool.Get(n)
		if sharedFramePool.Stats().Misses != misses {
			return
		}
		p := &b[:1][0]
		if seen[p] {
			t.Fatalf("a %d-byte frame was returned to the pool twice", n)
		}
		seen[p] = true
	}
}

// The fault model's contract through the one Send, with every send
// duplicated: arming causal tracing changes neither the fault draw nor the
// instrument counters, the duplicate never carries the trace context (one
// flow arrow per collective and peer, even once every duplicate has been
// received), and no owned frame is returned to a pool twice.
func TestFaultDuplicateContract(t *testing.T) {
	const n, elems = 3, 300
	rounds := 2 * (n - 1) // one segment per ring round at this size
	type result struct {
		stats    []FaultStats
		counters []map[string]int64
		tracers  []*telemetry.Tracer
	}
	run := func(t *testing.T, transport string, traced bool) result {
		comms, faults, regs := faultStack(t, transport, n, FaultConfig{Seed: 11, DupProb: 1})
		tracers := make([]*telemetry.Tracer, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			if traced {
				tracers[r] = telemetry.NewTracer()
				comms[r].SetFlowTracer(tracers[r])
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := comms[r]
				buf := make([]float32, elems)
				for i := range buf {
					buf[i] = float32(r)
				}
				c.BeginFlow(1)
				err := c.AllreduceRing(buf, OpSum)
				c.EndFlow()
				if err != nil {
					errs[r] = err
					return
				}
				for i, v := range buf {
					if v != float32(n*(n-1)/2) {
						errs[r] = fmt.Errorf("rank %d elem %d: got %v", r, i, v)
						return
					}
				}
				// Receive every duplicate, as a later collective reusing
				// the tags would: a stamped duplicate would record a second
				// flow finish here.
				left := (r - 1 + n) % n
				for k := 0; k < rounds; k++ {
					dup, err := c.Recv(left, tagAllreduce+uint32(k))
					if err != nil {
						errs[r] = fmt.Errorf("rank %d duplicate of round %d: %w", r, k, err)
						return
					}
					c.FramePool().Put(dup)
				}
			}(r)
		}
		wg.Wait()
		res := result{tracers: tracers}
		for r := 0; r < n; r++ {
			if errs[r] != nil {
				t.Fatal(errs[r])
			}
			res.stats = append(res.stats, faults[r].Stats())
			res.counters = append(res.counters, regs[r].Snapshot().Counters)
		}
		checkPoolClassDistinct(t, 4*elems/n)
		return res
	}
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			plain := run(t, transport, false)
			traced := run(t, transport, true)
			if !reflect.DeepEqual(plain.stats, traced.stats) {
				t.Fatalf("tracing changed the fault draw:\nplain  %+v\ntraced %+v", plain.stats, traced.stats)
			}
			if plain.stats[0].Duplicated != int64(rounds) {
				t.Fatalf("rank 0 duplicated %d sends, want %d", plain.stats[0].Duplicated, rounds)
			}
			if !reflect.DeepEqual(plain.counters, traced.counters) {
				t.Fatalf("tracing changed the instrument counters:\nplain  %v\ntraced %v", plain.counters, traced.counters)
			}
			// The ring sends to one peer per rank: one arrow per rank,
			// its start on the sender and its finish on the receiver.
			ids := flowTally(traced.tracers...)
			if len(ids) != n {
				t.Fatalf("%d flow ids, want one per rank (%d): %v", len(ids), n, ids)
			}
			for id, c := range ids {
				if c != [2]int{1, 1} {
					t.Errorf("flow %#x: %d starts, %d finishes, want one of each", id, c[0], c[1])
				}
			}
		})
	}
}

// Owned frames are consumed exactly once on every fault path: a dropped or
// failed frame goes back to the pool once, and a duplicated one is either
// delivered or released, never both.
func TestFaultOwnedFramesConsumedOnce(t *testing.T) {
	const k, size = 8, 700
	cases := []struct {
		name     string
		cfg      FaultConfig
		fail     bool // abort the sender's transport first
		received int  // frames rank 1 receives per send
		released bool // every frame must come back to the shared pool
	}{
		{name: "drop", cfg: FaultConfig{Seed: 3, DropProb: 1}, released: true},
		{name: "dup", cfg: FaultConfig{Seed: 3, DupProb: 1}, received: 2},
		{name: "fail", cfg: FaultConfig{Seed: 3}, fail: true, released: true},
		{name: "fail-dup", cfg: FaultConfig{Seed: 3, DupProb: 1}, fail: true, released: true},
	}
	for _, transport := range []string{"inproc", "tcp"} {
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				comms, _, regs := faultStack(t, transport, 2, tc.cfg)
				ep := comms[0].Endpoint()
				if tc.fail {
					comms[0].Abort()
				}
				puts := sharedFramePool.Stats().Puts
				for i := 0; i < k; i++ {
					err := ep.Send(1, Frame{Tag: 5, Buf: sharedFramePool.Get(size), Owned: true})
					if tc.fail != (err != nil) {
						t.Fatalf("send %d: err = %v, want failure %v", i, err, tc.fail)
					}
				}
				if got := sharedFramePool.Stats().Puts - puts; tc.released && got < k {
					t.Fatalf("%d of %d owned frames came back to the pool", got, k)
				}
				for i := 0; i < k*tc.received; i++ {
					b, err := comms[1].Recv(0, 5)
					if err != nil {
						t.Fatal(err)
					}
					if len(b) != size {
						t.Fatalf("received %d bytes, want %d", len(b), size)
					}
					sharedFramePool.Put(b) // as a collective does once it has reduced
				}
				if tc.fail && regs[0].Snapshot().Counters["mpi.send_errors"] != k {
					t.Fatalf("send_errors = %d, want %d", regs[0].Snapshot().Counters["mpi.send_errors"], k)
				}
				checkPoolClassDistinct(t, size)
			})
		}
	}
}
