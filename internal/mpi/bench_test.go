package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// Collective micro-benchmarks: the algorithm costs underneath the Horovod
// engine, over the in-process transport and over loopback TCP.

// benchAllreduce measures the steady-state collective: communicators are
// created once and every rank runs b.N back-to-back allreduces on a
// persistent goroutine (tag reuse across iterations is safe — transports
// are FIFO per peer pair), so allocs/op is the collective's own footprint
// summed over all ranks, not the harness's.
func benchAllreduce(b *testing.B, ranks, elems, segBytes int, algo string) {
	w, err := NewWorld(ranks)
	if err != nil {
		b.Fatal(err)
	}
	comms := make([]*Comm, ranks)
	for r := range comms {
		comms[r] = w.Comm(r)
		if segBytes > 0 {
			comms[r].SetSegmentBytes(segBytes)
		}
	}
	benchAllreduceOn(b, comms, elems, algo)
}

// benchAllreduceOn runs the steady-state collective loop on prebuilt
// communicators, one per rank.
func benchAllreduceOn(b *testing.B, comms []*Comm, elems int, algo string) {
	ranks := len(comms)
	bufs := make([][]float32, ranks)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
	}
	// One warm-up op primes the frame pools and per-comm ring state.
	runAll := func(n int) {
		var wg sync.WaitGroup
		wg.Add(ranks)
		for r := 0; r < ranks; r++ {
			go func(r int) {
				defer wg.Done()
				c := comms[r]
				for i := 0; i < n; i++ {
					switch algo {
					case "ring":
						_ = c.AllreduceRing(bufs[r], OpSum)
					case "rd":
						_ = c.AllreduceRecursiveDoubling(bufs[r], OpSum)
					}
				}
			}(r)
		}
		wg.Wait()
	}
	runAll(1)
	b.ResetTimer()
	runAll(b.N)
	bytes := float64(4*elems) * float64(b.N)
	b.ReportMetric(bytes/b.Elapsed().Seconds()/1e6, "MB/s/rank")
}

func BenchmarkRingAllreduce(b *testing.B) {
	for _, ranks := range []int{2, 4, 8} {
		for _, elems := range []int{1024, 262144} {
			b.Run(fmt.Sprintf("ranks=%d/elems=%d", ranks, elems), func(b *testing.B) {
				benchAllreduce(b, ranks, elems, 0, "ring")
			})
		}
	}
}

// BenchmarkRingAllreduceTCP is the ring allreduce over two loopback TCP
// ranks: the socket write path, the read loops and receive-side frame
// pooling, none of which the in-process benchmarks touch.
func BenchmarkRingAllreduceTCP(b *testing.B) {
	b.Run("ranks=2/elems=262144", func(b *testing.B) {
		comms, err := StartLocalTCPJob(2)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			for _, c := range comms {
				c.Abort()
			}
		}()
		benchAllreduceOn(b, comms, 262144, "ring")
	})
}

// BenchmarkRingAllreduceSegment sweeps the pipelining segment size at the
// largest rank/payload point, recording the per-frame-overhead vs. overlap
// trade-off.
func BenchmarkRingAllreduceSegment(b *testing.B) {
	for _, segKB := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks=8/elems=262144/seg=%dKB", segKB), func(b *testing.B) {
			benchAllreduce(b, 8, 262144, segKB<<10, "ring")
		})
	}
}

func BenchmarkRecursiveDoublingAllreduce(b *testing.B) {
	for _, elems := range []int{1024, 262144} {
		b.Run(fmt.Sprintf("ranks=4/elems=%d", elems), func(b *testing.B) {
			benchAllreduce(b, 4, elems, 0, "rd")
		})
	}
}

func BenchmarkBcast(b *testing.B) {
	const ranks = 8
	w, _ := NewWorld(ranks)
	payload := make([]float32, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(ranks)
		for r := 0; r < ranks; r++ {
			go func(r int) {
				defer wg.Done()
				buf := payload
				if r != 0 {
					buf = make([]float32, len(payload))
				}
				_ = w.Comm(r).Bcast(buf, 0)
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkBarrier(b *testing.B) {
	const ranks = 8
	w, _ := NewWorld(ranks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(ranks)
		for r := 0; r < ranks; r++ {
			go func(r int) {
				defer wg.Done()
				_ = w.Comm(r).Barrier()
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkSendRecvLatency(b *testing.B) {
	w, _ := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	payload := []byte{1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := c1.Recv(0, 1); err != nil {
				return
			}
			if err := c1.Send(0, 2, payload); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c0.Recv(1, 2); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}
