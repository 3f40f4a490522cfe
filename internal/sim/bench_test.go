package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/lattice"
)

// activityFixture is an engine over a 100-qubit STAR grid whose ancilla
// reservations rng toggles, for exercising accountActivity directly.
func activityFixture(window int) (*Engine, *rand.Rand) {
	g := lattice.NewSTARGrid(100)
	cfg := testCfg()
	cfg.ActivityWindow = window
	e := NewEngine(g, circuit.NewDAG(circuit.New("idle", 100)), cfg, 1, &scriptSched{})
	return e, rand.New(rand.NewSource(1))
}

// shuffleBusy reserves each ancilla tile with probability 1/3.
func shuffleBusy(st *State, rng *rand.Rand) {
	busy := &Op{}
	for _, tile := range st.ancTileIdx {
		st.tileOp[tile] = nil
		if rng.Intn(3) == 0 {
			st.tileOp[tile] = busy
		}
	}
}

// TestActivityRingMatchesNaiveWindow: the slot-major ring's rolling sums
// equal a direct count over each ancilla's last window cycles, and its
// cumulative totals a direct count over the whole run.
func TestActivityRingMatchesNaiveWindow(t *testing.T) {
	const window = 7
	e, rng := activityFixture(window)
	st := e.st
	var history [][]bool // cycle -> ancilla -> busy
	for cycle := 1; cycle <= 40; cycle++ {
		st.cycle = cycle
		shuffleBusy(st, rng)
		row := make([]bool, len(st.ancTileIdx))
		for a, tile := range st.ancTileIdx {
			row[a] = st.tileOp[tile] != nil
		}
		history = append(history, row)
		e.accountActivity()
		for a := range st.ancTileIdx {
			inWindow, total := 0, 0
			for c, h := range history {
				if h[a] {
					total++
					if c >= len(history)-window {
						inWindow++
					}
				}
			}
			if st.actSum[a] != inWindow || st.actTotal[a] != total {
				t.Fatalf("cycle %d ancilla %d: window sum %d total %d, want %d and %d",
					cycle, a, st.actSum[a], st.actTotal[a], inWindow, total)
			}
		}
	}
}

// BenchmarkAccountActivity times one cycle's activity-window update on a
// 100-qubit STAR grid (~300 ancillas) with a third of them reserved.
func BenchmarkAccountActivity(b *testing.B) {
	e, rng := activityFixture(100)
	shuffleBusy(e.st, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.st.cycle++
		e.accountActivity()
	}
}
