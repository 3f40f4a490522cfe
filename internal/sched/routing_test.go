package sched

import (
	"slices"
	"testing"

	"repro/internal/lattice"
)

// oracleAutoBraidPath is the original AutoBraid path finder: it builds
// every endpoint pair's braid and keeps the first strictly shortest one.
func oracleAutoBraidPath(g *lattice.Grid, srcs, dsts []lattice.Coord, blocked func(lattice.Coord) bool) []lattice.Coord {
	var best []lattice.Coord
	for _, s := range srcs {
		if blocked(s) || g.Kind(s) != lattice.TileAncilla {
			continue
		}
		for _, d := range dsts {
			if blocked(d) || g.Kind(d) != lattice.TileAncilla {
				continue
			}
			if p := g.BraidPath(s, d, blocked); p != nil && (best == nil || len(p) < len(best)) {
				best = p
			}
		}
	}
	if best != nil {
		return best
	}
	return g.ShortestAncillaPath(srcs, dsts, blocked)
}

// routingFixture is a compressed or uncompressed STAR grid with a random
// busy set, plus endpoint sets drawn as the CNOT driver draws them: the
// ancilla neighbours of two data qubits.
type routingFixture struct {
	g       *lattice.Grid
	blocked func(lattice.Coord) bool
	pairs   [][2][]lattice.Coord
}

func newRoutingFixture(seed int64, qubits int, compress, busyFrac float64) routingFixture {
	rng := newRand(seed)
	g := lattice.NewSTARGrid(qubits)
	if compress > 0 {
		g.Compress(compress, rng)
	}
	busy := map[lattice.Coord]bool{}
	for id := 0; id < g.NumAncilla(); id++ {
		if rng.Float64() < busyFrac {
			busy[g.AncillaTile(id)] = true
		}
	}
	f := routingFixture{g: g, blocked: func(c lattice.Coord) bool { return busy[c] }}
	for i := 0; i < 64; i++ {
		q1, q2 := rng.Intn(g.NumQubits()), rng.Intn(g.NumQubits())
		f.pairs = append(f.pairs, [2][]lattice.Coord{
			g.AncillaNeighbors(g.DataTile(q1), nil),
			g.AncillaNeighbors(g.DataTile(q2), nil),
		})
	}
	return f
}

// TestAutoBraidPathMatchesOracle: probing braid lengths and building only
// the winner picks exactly the route the build-every-braid finder picked.
func TestAutoBraidPathMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		f := newRoutingFixture(seed, 4+int(seed%30), float64(seed%5)/4, float64(seed%7)/10)
		for _, p := range f.pairs {
			got := autoBraidPath(f.g, p[0], p[1], f.blocked)
			want := oracleAutoBraidPath(f.g, p[0], p[1], f.blocked)
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("seed %d: autoBraidPath(%v, %v) = %v, oracle %v", seed, p[0], p[1], got, want)
			}
		}
	}
}

// BenchmarkAutoBraidPath times AutoBraid's route choice between the
// neighbour sets of two data qubits on a 100-qubit grid with 15% of its
// ancillas busy.
func BenchmarkAutoBraidPath(b *testing.B) {
	f := newRoutingFixture(7, 100, 0, 0.15)
	f.g.ShortestAncillaPath(f.pairs[0][0], f.pairs[0][1], f.blocked) // sizes the grid's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		autoBraidPath(f.g, p[0], p[1], f.blocked)
	}
}
