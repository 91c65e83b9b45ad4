package job

import (
	"runtime"
	"testing"
	"time"

	"dnnperf/internal/train"
)

// TestInprocLaunchesLeakNoGoroutines pins the supervisor's teardown: every
// launch must stop its ranks' Horovod engine loops, or each one leaves an
// engine per rank negotiating forever and the goroutine count grows with
// the number of launches.
func TestInprocLaunchesLeakNoGoroutines(t *testing.T) {
	spec := Spec{Name: "leak", PPN: 2, IntraThreads: 1, Steps: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		res, err := InprocBackend{}.Run(&RunContext{Spec: spec})
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if res.Outcome != train.OutcomeClean.String() {
			t.Fatalf("launch %d: outcome %q", i, res.Outcome)
		}
	}
	// Exited goroutines are reaped asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after 20 launches, %d before:\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}
