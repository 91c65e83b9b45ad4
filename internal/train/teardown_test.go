package train

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dnnperf/internal/mpi"
)

// TestLocalFailureEndsRun pins Supervise's teardown on a rank that fails on
// its own while its peer stays healthy. Only rank 0 writes checkpoints, and
// its checkpoint directory sits under a regular file, so its first save
// fails while rank 1 keeps training. Rank 0 must not wait on rank 1 in its
// engine's shutdown, and rank 1 must see a dead peer instead of waiting for
// rank 0's gradients: both return an error well within the deadline (rank 1
// parks, lacking quorum, until its one-second rejoin timeout).
func TestLocalFailureEndsRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(file, "ckpt")
	worlds := map[string]func(t *testing.T) []*mpi.Comm{
		"inproc": func(t *testing.T) []*mpi.Comm {
			w, err := mpi.NewWorldOpts(2, mpi.WorldOptions{RecvTimeout: 250 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return []*mpi.Comm{w.Comm(0), w.Comm(1)}
		},
		"tcp": func(t *testing.T) []*mpi.Comm {
			comms, err := mpi.StartLocalTCPJobOpts(2, mpi.TCPOptions{
				RecvTimeout:  time.Second,
				DrainTimeout: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			return comms
		},
	}
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			comms := worlds[name](t)
			errs := make(chan error, len(comms))
			for _, c := range comms {
				cfg := elasticConfig(c, 8, ckptDir)
				cfg.RejoinTimeout = time.Second
				go func() {
					_, err := Supervise(cfg)
					errs <- err
				}()
			}
			deadline := time.After(30 * time.Second)
			for range comms {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatal("a rank finished cleanly despite the failed checkpoint")
					}
					t.Logf("rank failed as expected: %v", err)
				case <-deadline:
					buf := make([]byte, 1<<16)
					t.Fatalf("ranks still running after 30 s:\n%s", buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
