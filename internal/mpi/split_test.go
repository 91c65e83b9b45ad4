package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dnnperf/internal/telemetry"
)

func TestSplitIntoGroups(t *testing.T) {
	const n = 6
	w, _ := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("rank %d: sub size %d", c.Rank(), sub.Size())
		}
		// Even parent ranks 0,2,4 -> sub ranks 0,1,2 (key order).
		want := c.Rank() / 2
		if sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// Collective inside the sub-communicator: sum of parent ranks.
		buf := []float32{float32(c.Rank())}
		if err := sub.AllreduceRing(buf, OpSum); err != nil {
			return err
		}
		wantSum := float32(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			wantSum = 1 + 3 + 5
		}
		if buf[0] != wantSum {
			return fmt.Errorf("rank %d: group sum %v, want %v", c.Rank(), buf[0], wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		color := -1
		if c.Rank() < 2 {
			color = 7
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				return fmt.Errorf("rank %d: expected 2-rank sub-communicator", c.Rank())
			}
		} else if sub != nil {
			return fmt.Errorf("rank %d: negative color must yield nil", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	const n = 4
	w, _ := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		// Reverse ordering via key.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := n - 1 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAllreduceMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ ranks, group, elems int }{
		{4, 2, 100},
		{6, 2, 37},
		{6, 3, 1000},
		{8, 4, 513},
		{5, 2, 64}, // uneven: groups of 2,2,1
		{4, 8, 16}, // group >= size: falls back to flat
		{4, 1, 16}, // group 1: falls back to flat
	} {
		tc := tc
		t.Run(fmt.Sprintf("ranks=%d_group=%d", tc.ranks, tc.group), func(t *testing.T) {
			w, _ := NewWorld(tc.ranks)
			err := w.Run(func(c *Comm) error {
				buf := make([]float32, tc.elems)
				for i := range buf {
					buf[i] = float32(c.Rank()*100 + i)
				}
				if err := c.AllreduceHierarchical(buf, tc.group, OpSum); err != nil {
					return err
				}
				for i := range buf {
					want := float32(100*(tc.ranks*(tc.ranks-1)/2) + tc.ranks*i)
					if buf[i] != want {
						return fmt.Errorf("rank %d elem %d: %v want %v", c.Rank(), i, buf[i], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHierarchicalRejectsBadGroup(t *testing.T) {
	w, _ := NewWorld(2)
	if err := w.Comm(0).AllreduceHierarchical(make([]float32, 4), 0, OpSum); err == nil {
		t.Fatal("group size 0 must error")
	}
}

func TestNestedSplit(t *testing.T) {
	const n = 8
	w, _ := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		// First split into halves, then each half into pairs.
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		pair, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if pair.Size() != 2 {
			return fmt.Errorf("pair size %d", pair.Size())
		}
		buf := []float32{1}
		if err := pair.AllreduceRing(buf, OpSum); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("pair sum %v", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlowThroughSplit: a flow traced on a split sub-communicator still
// draws one cross-rank arrow per ring peer — the context rides the
// translated frame through the parent transport, over in-process mailboxes
// and over TCP alike.
func TestFlowThroughSplit(t *testing.T) {
	const n = 4
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			comms, _, _ := faultStack(t, transport, n, FaultConfig{})
			tracers := make([]*telemetry.Tracer, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				tracers[r] = telemetry.NewTracer()
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					sub, err := comms[r].Split(r%2, r)
					if err != nil {
						errs[r] = err
						return
					}
					sub.SetFlowTracer(tracers[r])
					buf := []float32{float32(r), 1}
					sub.BeginFlow(1)
					errs[r] = sub.AllreduceRing(buf, OpSum)
					sub.EndFlow()
				}(r)
			}
			wg.Wait()
			// Flow ids derive from sub-communicator ranks, so each group is
			// checked on its own.
			for group := 0; group < 2; group++ {
				if errs[group] != nil || errs[group+2] != nil {
					t.Fatalf("group %d: %v", group, errors.Join(errs[group], errs[group+2]))
				}
				ids := flowTally(tracers[group], tracers[group+2])
				if len(ids) != n/2 {
					t.Fatalf("group %d: %d flow ids, want one per member: %v", group, len(ids), ids)
				}
				for id, c := range ids {
					if c != [2]int{1, 1} {
						t.Errorf("group %d flow %#x: %d starts, %d finishes, want one of each", group, id, c[0], c[1])
					}
				}
			}
		})
	}
}
