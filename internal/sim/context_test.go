package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// TestRunContextPreCancelled: a cancelled context aborts before the first
// cycle, with the context error wrapped for callers to classify.
func TestRunContextPreCancelled(t *testing.T) {
	g := lattice.MustBuild("star", 4, nil)
	c := circuit.New("cnot", 4)
	c.CNOT(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunDAG(ctx, g, circuit.NewDAG(c), testCfg(), 1, &scriptSched{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun: cancellation lands inside the cycle loop —
// within one cancel-check stride — instead of waiting for the run to end.
func TestRunContextCancelMidRun(t *testing.T) {
	g := lattice.MustBuild("star", 2, nil)
	c := circuit.New("slow", 2)
	c.CNOT(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cycles := 0
	// The never-completing scheduler from the max-cycles test: it spins
	// edge rotations forever (progress every cycle, the gate never done),
	// so only the context check can end the run.
	busy := &scriptSched{
		onCycle: func(st *State) {
			cycles++
			if cycles == 3 {
				cancel()
			}
			if st.QubitFree(0) {
				if _, err := st.StartEdgeRotation(-1, 0, lattice.At(0, 1)); err != nil {
					t.Errorf("StartEdgeRotation: %v", err)
				}
			}
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunDAG(ctx, g, circuit.NewDAG(c), testCfg(), 1, busy)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not abort")
	}
	if cycles > cancelCheckMask+4 {
		t.Errorf("run kept going for %d cycles after cancellation (stride %d)", cycles, cancelCheckMask+1)
	}
}
