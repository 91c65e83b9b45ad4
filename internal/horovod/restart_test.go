package horovod

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dnnperf/internal/mpi"
)

// TestRestartAfterRankDeath kills one rank of a 3-rank job mid-training,
// shrinks the communicator on the survivors, restarts their engines, and
// verifies allreduces work on the shrunk job with correct averaging for the
// new size.
func TestRestartAfterRankDeath(t *testing.T) {
	w, err := mpi.NewWorldOpts(3, mpi.WorldOptions{RecvTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Average = true

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			e := NewEngine(c, cfg)

			// One healthy step with all three ranks.
			data := []float32{float32(r)}
			if err := e.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			if data[0] != 1 { // (0+1+2)/3
				errs[r] = errors.New("wrong pre-failure average")
				return
			}

			if r == 2 {
				c.Close() // rank 2 dies
				return
			}

			// Survivors: next allreduce fails with a typed peer error.
			data[0] = float32(r)
			err := e.Allreduce("g", data)
			if err == nil {
				errs[r] = errors.New("expected allreduce failure after rank death")
				return
			}
			if _, ok := mpi.AsPeerError(err); !ok {
				errs[r] = errors.New("failure is not a typed PeerError: " + err.Error())
				return
			}

			// Recover: shut down, shrink, restart.
			e.Shutdown()
			nc, sv, err := c.Shrink([]int{2}, mpi.ShrinkOptions{Epoch: 0})
			if err != nil {
				errs[r] = err
				return
			}
			if len(sv) != 2 {
				errs[r] = errors.New("wrong survivor count")
				return
			}
			ne := e.Restart(nc)
			data[0] = float32(nc.Rank())
			if err := ne.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			if data[0] != 0.5 { // (0+1)/2 — averaged by the NEW size
				errs[r] = errors.New("wrong post-restart average")
				return
			}
			if st := ne.Stats(); st.Restarts != 1 {
				errs[r] = errors.New("restart counter not incremented")
				return
			}
			errs[r] = ne.Shutdown()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestRestartBoundedQuiesce: Shutdown must not wait out a long CycleTime —
// the wake channel kicks the loop out of its sleep — and a tensor stuck
// against a dead peer completes with a typed error rather than hanging,
// after which Restart yields a working engine on a fresh communicator.
func TestRestartBoundedQuiesce(t *testing.T) {
	// Rank 1 never creates an engine: rank 0's negotiation times out against
	// it, modeling a peer dead from the start.
	w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// A huge CycleTime: without the early-wake path, Shutdown would block for
	// an hour waiting for the first negotiation.
	e := NewEngine(w.Comm(0), Config{CycleTime: time.Hour})

	got := make(chan error, 1)
	if err := e.AllreduceAsync("stuck", []float32{1}, func(err error) { got <- err }); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	qerr := make(chan error, 1)
	go func() { qerr <- e.Shutdown() }()

	// The stuck tensor completes: the woken loop's final negotiation runs
	// against the dead peer and fails within the transport deadline.
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("stuck tensor completed without error")
		}
		if _, ok := mpi.AsPeerError(err); !ok {
			t.Fatalf("stuck tensor error is not a typed PeerError: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck tensor never completed")
	}
	select {
	case <-qerr:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Shutdown took %v; the wake channel should bound it by the transport deadline", elapsed)
	}
}

// TestRestartOntoSingleRank: the sole survivor restarts onto a size-1
// communicator and trains alone; the restart counter carries over.
func TestRestartOntoSingleRank(t *testing.T) {
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w.Comm(0), fastCfg())
	if err := e.Allreduce("warm", []float32{1}); err != nil {
		t.Fatal(err)
	}

	sw, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	ne := e.Restart(sw.Comm(0))
	data := []float32{7}
	if err := ne.Allreduce("g", data); err != nil {
		t.Fatalf("allreduce on restarted single-rank engine: %v", err)
	}
	if data[0] != 7 {
		t.Fatalf("size-1 allreduce changed data: %v", data[0])
	}
	st := ne.Stats()
	if st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
	if st.FrameworkRequests != 2 {
		t.Fatalf("FrameworkRequests = %d, want 2 (counters carry across restart)", st.FrameworkRequests)
	}
	if err := ne.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
