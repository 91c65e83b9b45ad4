package horovod

import (
	"sync"
	"testing"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/telemetry"
)

// flowCounts tallies a tracer's causal flow events.
func flowCounts(events []telemetry.TraceEvent) (starts, finishes int, ids map[uint64][2]int) {
	ids = map[uint64][2]int{}
	for _, ev := range events {
		if ev.Name != "mpi.flow" {
			continue
		}
		switch ev.Ph {
		case "s":
			starts++
			c := ids[ev.ID]
			c[0]++
			ids[ev.ID] = c
		case "f":
			finishes++
			c := ids[ev.ID]
			c[1]++
			ids[ev.ID] = c
		}
	}
	return
}

// TestFlowEventsAcrossRanks runs a 3-rank engine job with per-rank tracers
// and verifies the collectives emit cross-rank causal flow arrows: senders
// record flow starts, receivers flow finishes, and — once all ranks' events
// are merged the way exportTelemetry merges bundles — at least one flow id
// appears on both sides, which is what a trace viewer needs to draw the
// arrow.
func TestFlowEventsAcrossRanks(t *testing.T) {
	const n = 3
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*telemetry.Tracer, n)
	for r := range tracers {
		tracers[r] = telemetry.NewTracer()
		tracers[r].SetPID(r)
	}
	cfg := fastCfg()
	cfg.Average = true

	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			ecfg := cfg
			ecfg.Tracer = tracers[r]
			e := NewEngine(c, ecfg)
			e.SetStep(1)
			data := []float32{float32(r)}
			if err := e.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			errs[r] = e.Shutdown()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	// Merge all ranks' events — the same shape the merged trace file has.
	var merged []telemetry.TraceEvent
	for r := 0; r < n; r++ {
		merged = append(merged, tracers[r].Events()...)
	}
	starts, finishes, ids := flowCounts(merged)
	if starts == 0 {
		t.Fatal("no flow starts recorded by any rank")
	}
	if finishes == 0 {
		t.Fatal("no flow finishes recorded by any rank")
	}
	matched := 0
	for _, c := range ids {
		if c[0] > 0 && c[1] > 0 {
			matched++
		}
	}
	if matched == 0 {
		t.Fatalf("no flow id has both sides: %d starts, %d finishes", starts, finishes)
	}
}

// TestFlowSurvivesBundleMerge round-trips flow events through the
// Snapshot/Bundle encoding the telemetry gather uses and checks the flow
// identity fields (ID, BP) survive.
func TestFlowSurvivesBundleMerge(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.SetPID(1)
	tr.FlowStart("mpi.flow", "flow", telemetry.CommLane, 0xdeadbeef)
	tr.FlowFinish("mpi.flow", "flow", telemetry.CommLane, 0xdeadbeef)
	blob, err := (telemetry.Bundle{Events: tr.Events()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := telemetry.DecodeBundle(blob)
	if err != nil {
		t.Fatal(err)
	}
	starts, finishes, ids := flowCounts(b.Events)
	if starts != 1 || finishes != 1 {
		t.Fatalf("after bundle round-trip: %d starts, %d finishes (want 1, 1)", starts, finishes)
	}
	if c := ids[0xdeadbeef]; c[0] != 1 || c[1] != 1 {
		t.Fatalf("flow id lost in round-trip: %v", ids)
	}
	for _, ev := range b.Events {
		if ev.Ph == "f" && ev.BP != "e" {
			t.Fatalf("flow finish lost bp=e binding: %+v", ev)
		}
	}
}

// TestFlowAfterRestart kills a rank, shrinks, restarts the engines, and
// verifies the restarted engines still emit flow events — with span ids
// stamped from the shrunk communicator's renumbered ranks.
func TestFlowAfterRestart(t *testing.T) {
	const n = 3
	w, err := mpi.NewWorldOpts(n, mpi.WorldOptions{RecvTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*telemetry.Tracer, n)
	for r := range tracers {
		tracers[r] = telemetry.NewTracer()
		tracers[r].SetPID(r)
	}
	cfg := fastCfg()
	cfg.Average = true

	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			ecfg := cfg
			ecfg.Tracer = tracers[r]
			e := NewEngine(c, ecfg)
			e.SetStep(1)
			data := []float32{float32(r)}
			if err := e.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			if r == 2 {
				c.Close()
				return
			}
			// Ride out the failure, then shrink and restart.
			data[0] = float32(r)
			if err := e.Allreduce("g", data); err == nil {
				errs[r] = mpi.ErrClosed
				return
			}
			e.Shutdown()
			nc, _, err := c.Shrink([]int{2}, mpi.ShrinkOptions{Epoch: 0})
			if err != nil {
				errs[r] = err
				return
			}
			before, _, _ := flowCounts(tracers[r].Events())
			ne := e.Restart(nc)
			ne.SetStep(2)
			data[0] = float32(nc.Rank())
			if err := ne.Allreduce("g", data); err != nil {
				errs[r] = err
				return
			}
			after, _, _ := flowCounts(tracers[r].Events())
			if after <= before {
				t.Errorf("rank %d: no new flow starts after restart (%d -> %d)", r, before, after)
			}
			errs[r] = ne.Shutdown()
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	// Post-shrink span ids must be stamped with the renumbered origin ranks
	// (0 or 1): the top 32 bits of a span id are origin+1.
	merged := append(tracers[0].Events(), tracers[1].Events()...)
	for _, ev := range merged {
		if ev.Name != "mpi.flow" || ev.Ph != "s" {
			continue
		}
		if origin := int(ev.ID>>32) - 1; origin < 0 || origin > 2 {
			t.Fatalf("flow id %#x encodes impossible origin %d", ev.ID, origin)
		}
	}
}
