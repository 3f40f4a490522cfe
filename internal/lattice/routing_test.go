package lattice

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestShortestAncillaPathTrivial(t *testing.T) {
	g := NewSTARGrid(4)
	a := Coord{0, 1}
	p := g.ShortestAncillaPath([]Coord{a}, []Coord{a}, nil)
	if len(p) != 1 || p[0] != a {
		t.Errorf("self path = %v, want [%v]", p, a)
	}
}

func TestShortestAncillaPathStraightLine(t *testing.T) {
	g := NewSTARGrid(4)
	// Row 0 is a full ancilla corridor: (0,0) to (0,4) is length 5.
	p := g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{0, 4}}, nil)
	if len(p) != 5 {
		t.Fatalf("path = %v, want 5 tiles", p)
	}
	if !g.PathContiguous(p) {
		t.Error("path must be contiguous ancillas")
	}
}

func TestShortestAncillaPathAvoidsBlocked(t *testing.T) {
	g := NewSTARGrid(4)
	blocked := func(c Coord) bool { return c == Coord{0, 2} }
	p := g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{0, 4}}, blocked)
	if p == nil {
		t.Fatal("detour should exist")
	}
	for _, c := range p {
		if blocked(c) {
			t.Fatalf("path %v passes through blocked tile", p)
		}
	}
	if len(p) <= 5 {
		t.Errorf("detour should be longer than the straight line, got %d", len(p))
	}
	if !g.PathContiguous(p) {
		t.Error("detour must be contiguous")
	}
}

func TestShortestAncillaPathNoRoute(t *testing.T) {
	g := NewSTARGrid(4)
	blockAll := func(c Coord) bool { return c.Row != 0 }
	p := g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{4, 4}}, blockAll)
	if p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
}

func TestShortestAncillaPathMultiSource(t *testing.T) {
	g := NewSTARGrid(4)
	// Sources on opposite corners; nearest one should win.
	p := g.ShortestAncillaPath([]Coord{{4, 4}, {0, 0}}, []Coord{{0, 1}}, nil)
	if p == nil || p[0] != (Coord{0, 0}) {
		t.Errorf("path = %v, want to start at (0,0)", p)
	}
	if len(p) != 2 {
		t.Errorf("path length = %d, want 2", len(p))
	}
}

func TestBraidPath(t *testing.T) {
	g := NewSTARGrid(9) // 7x7 tiles
	a, b := Coord{0, 0}, Coord{0, 6}
	p := g.BraidPath(a, b, nil)
	if p == nil {
		t.Fatal("row corridor braid should exist")
	}
	if !g.PathContiguous(p) {
		t.Error("braid path must be contiguous")
	}
	if p[0] != a || p[len(p)-1] != b {
		t.Errorf("braid endpoints wrong: %v", p)
	}
}

func TestBraidPathAroundData(t *testing.T) {
	g := NewSTARGrid(9)
	// (1,0) to (1,6): row 1 contains data tiles at odd columns, so the
	// row-first L fails; column-first goes through row? Column-first from
	// (1,0): walk column 0 to row 1 (already there), then row 1 East —
	// also blocked. BraidPath should return nil here.
	p := g.BraidPath(Coord{1, 0}, Coord{1, 6}, nil)
	if p != nil {
		t.Errorf("expected nil braid through data row, got %v", p)
	}
}

func TestBraidPathLShape(t *testing.T) {
	g := NewSTARGrid(9)
	p := g.BraidPath(Coord{0, 0}, Coord{6, 0}, nil)
	if p == nil {
		t.Fatal("column corridor braid should exist")
	}
	if len(p) != 7 {
		t.Errorf("braid length = %d, want 7", len(p))
	}
}

// Property: BFS paths are never longer than braid paths between the same
// endpoints, are contiguous, avoid blocked tiles, and start/end correctly.
func TestShortestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewSTARGrid(4 + rng.Intn(12))
		// Random blocked set, not too dense.
		blockedSet := map[Coord]bool{}
		for i := 0; i < g.NumAncilla()/10; i++ {
			blockedSet[g.AncillaTile(rng.Intn(g.NumAncilla()))] = true
		}
		blocked := func(c Coord) bool { return blockedSet[c] }
		for k := 0; k < 8; k++ {
			a := g.AncillaTile(rng.Intn(g.NumAncilla()))
			b := g.AncillaTile(rng.Intn(g.NumAncilla()))
			if blockedSet[a] || blockedSet[b] {
				continue
			}
			bfs := g.ShortestAncillaPath([]Coord{a}, []Coord{b}, blocked)
			braid := g.BraidPath(a, b, blocked)
			if bfs == nil {
				if braid != nil {
					return false // BFS is complete; braid cannot beat it
				}
				continue
			}
			if bfs[0] != a || bfs[len(bfs)-1] != b || !g.PathContiguous(bfs) {
				return false
			}
			for _, c := range bfs {
				if blockedSet[c] {
					return false
				}
			}
			if braid != nil && len(braid) < len(bfs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// oracleShortestAncillaPath is the original map-based BFS, kept as the
// reference the dense-scratch ShortestAncillaPath must match path for path.
func oracleShortestAncillaPath(g *Grid, src, dst []Coord, blocked func(Coord) bool) []Coord {
	if len(src) == 0 || len(dst) == 0 {
		return nil
	}
	isDst := make(map[Coord]bool, len(dst))
	for _, c := range dst {
		if g.Kind(c) == TileAncilla && (blocked == nil || !blocked(c)) {
			isDst[c] = true
		}
	}
	if len(isDst) == 0 {
		return nil
	}
	prev := make(map[Coord]Coord, 64)
	visited := make(map[Coord]bool, 64)
	var queue []Coord
	for _, c := range src {
		if g.Kind(c) != TileAncilla || (blocked != nil && blocked(c)) {
			continue
		}
		if visited[c] {
			continue
		}
		visited[c] = true
		queue = append(queue, c)
		if isDst[c] {
			return []Coord{c}
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := North; d <= West; d++ {
			n := c.Step(d)
			if g.Kind(n) != TileAncilla || visited[n] {
				continue
			}
			if blocked != nil && blocked(n) {
				continue
			}
			visited[n] = true
			prev[n] = c
			if isDst[n] {
				var rev []Coord
				cur := n
				for {
					rev = append(rev, cur)
					p, ok := prev[cur]
					if !ok {
						break
					}
					cur = p
				}
				path := make([]Coord, len(rev))
				for i := range rev {
					path[i] = rev[len(rev)-1-i]
				}
				return path
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// oracleStraightL is the original allocating L-route walk, the reference
// for BraidLen and BraidRoute.
func oracleStraightL(g *Grid, a, b Coord, rowFirst bool, blocked func(Coord) bool) []Coord {
	var path []Coord
	ok := func(c Coord) bool {
		return g.Kind(c) == TileAncilla && (blocked == nil || !blocked(c))
	}
	step := func(from, to int) int {
		if to > from {
			return 1
		}
		return -1
	}
	cur := a
	if !ok(cur) {
		return nil
	}
	path = append(path, cur)
	legs := [2]bool{rowFirst, !rowFirst}
	for _, horizontal := range legs {
		if horizontal {
			for cur.Col != b.Col {
				cur = Coord{cur.Row, cur.Col + step(cur.Col, b.Col)}
				if !ok(cur) {
					return nil
				}
				path = append(path, cur)
			}
		} else {
			for cur.Row != b.Row {
				cur = Coord{cur.Row + step(cur.Row, b.Row), cur.Col}
				if !ok(cur) {
					return nil
				}
				path = append(path, cur)
			}
		}
	}
	return path
}

func oracleBraidPath(g *Grid, a, b Coord, blocked func(Coord) bool) []Coord {
	if p := oracleStraightL(g, a, b, true, blocked); p != nil {
		return p
	}
	return oracleStraightL(g, a, b, false, blocked)
}

// samePath reports whether two paths are identical, nil only matching nil.
func samePath(a, b []Coord) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// routingCase derives a grid, a blocked set and endpoint sets from fuzz
// inputs. Endpoints are drawn from ancillas, data tiles, holes and
// out-of-bounds coordinates, duplicates allowed, so every skip branch of
// the searches is reachable.
type routingCase struct {
	g       *Grid
	blocked map[Coord]bool
	rng     *rand.Rand
}

func newRoutingCase(qubits, compress, density uint8, linear bool, seed int64) routingCase {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(qubits%40)
	var g *Grid
	if linear {
		g = NewLinearGrid(1 + n%12)
	} else {
		g = NewSTARGrid(n)
	}
	if f := float64(compress%101) / 100; f > 0 {
		g.Compress(f, rng)
	}
	blocked := map[Coord]bool{}
	p := float64(density%101) / 100
	for id := 0; id < g.NumAncilla(); id++ {
		if rng.Float64() < p {
			blocked[g.AncillaTile(id)] = true
		}
	}
	return routingCase{g, blocked, rng}
}

func (rc routingCase) coord() Coord {
	g, rng := rc.g, rc.rng
	switch rng.Intn(8) {
	case 0:
		return g.DataTile(rng.Intn(g.NumQubits()))
	case 1:
		return Coord{rng.Intn(g.Rows()+4) - 2, rng.Intn(g.Cols()+4) - 2}
	default:
		return g.AncillaTile(rng.Intn(g.NumAncilla()))
	}
}

func (rc routingCase) coords(n int) []Coord {
	out := make([]Coord, n)
	for i := range out {
		out[i] = rc.coord()
	}
	return out
}

// FuzzShortestAncillaPath checks the dense-scratch BFS against the map
// oracle on fuzzed grids (STAR or linear, compressed or not), blocked sets
// and endpoint sets, and BraidLen/BraidRoute/BraidPath against the
// allocating L walk. Several queries share one grid so the epoch-stamped
// scratch is exercised across searches, including across an epoch wrap.
func FuzzShortestAncillaPath(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0), false, int64(1), uint8(1), uint8(1))
	f.Add(uint8(13), uint8(50), uint8(10), false, int64(2), uint8(2), uint8(4))
	f.Add(uint8(29), uint8(100), uint8(30), false, int64(3), uint8(4), uint8(3))
	f.Add(uint8(8), uint8(0), uint8(20), true, int64(4), uint8(3), uint8(2))
	f.Add(uint8(16), uint8(70), uint8(95), false, int64(5), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, qubits, compress, density uint8, linear bool, seed int64, nsrc, ndst uint8) {
		rc := newRoutingCase(qubits, compress, density, linear, seed)
		g := rc.g
		blocked := func(c Coord) bool { return rc.blocked[c] }
		for q := 0; q < 6; q++ {
			if q == 1 && seed%3 == 0 {
				// Query 0 left stamps of epoch 1; query 2 wraps back to
				// epoch 1, where only the wrap's clear keeps them stale.
				g.route.epoch = math.MaxUint32 - 1
			}
			src, dst := rc.coords(int(nsrc%6)), rc.coords(int(ndst%6))
			bl := blocked
			if q%2 == 1 {
				bl = nil
			}
			got := g.ShortestAncillaPath(src, dst, bl)
			if want := oracleShortestAncillaPath(g, src, dst, bl); !samePath(got, want) {
				t.Fatalf("query %d: ShortestAncillaPath(%v, %v) = %v, oracle %v\n%s", q, src, dst, got, want, g.Render())
			}
			a, b := rc.coord(), rc.coord()
			for _, rowFirst := range []bool{true, false} {
				want := oracleStraightL(g, a, b, rowFirst, bl)
				if n := g.BraidLen(a, b, rowFirst, bl); n != len(want) {
					t.Fatalf("BraidLen(%v, %v, %v) = %d, oracle route %v", a, b, rowFirst, n, want)
				}
				if want != nil && !samePath(BraidRoute(a, b, rowFirst), want) {
					t.Fatalf("BraidRoute(%v, %v, %v) = %v, oracle %v", a, b, rowFirst, BraidRoute(a, b, rowFirst), want)
				}
			}
			if got, want := g.BraidPath(a, b, bl), oracleBraidPath(g, a, b, bl); !samePath(got, want) {
				t.Fatalf("BraidPath(%v, %v) = %v, oracle %v", a, b, got, want)
			}
		}
	})
}

// TestCloneDoesNotShareRouteScratch: a clone searches on its own scratch,
// so searches on the original and the clone interleave safely.
func TestCloneDoesNotShareRouteScratch(t *testing.T) {
	g := NewSTARGrid(9)
	g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{6, 6}}, nil)
	c := g.Clone()
	if len(c.route.visited) != 0 || c.route.epoch != 0 {
		t.Fatal("Clone copied the routing scratch")
	}
	c.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{6, 6}}, nil)
	if &c.route.visited[0] == &g.route.visited[0] {
		t.Fatal("clone and original share the routing scratch")
	}
}

// wallAtCol10 blocks column 10, a full ancilla corridor of a STAR grid at
// least 11 tiles wide, cutting the grid in two. It captures nothing, so
// passing it costs no closure allocation in the allocation tests.
func wallAtCol10(c Coord) bool { return c.Col == 10 }

func TestShortestAncillaPathAllocs(t *testing.T) {
	g := NewSTARGrid(100) // 21x21 tiles
	noRoute := testing.AllocsPerRun(100, func() {
		if g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{0, 20}}, wallAtCol10) != nil {
			t.Fatal("expected no route")
		}
	})
	if noRoute != 0 {
		t.Errorf("BFS without a route allocates %v times, want 0", noRoute)
	}
	route := testing.AllocsPerRun(100, func() {
		if g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{20, 20}}, nil) == nil {
			t.Fatal("expected a route")
		}
	})
	if route != 1 {
		t.Errorf("BFS with a route allocates %v times, want 1 (the path)", route)
	}
	probe := testing.AllocsPerRun(100, func() {
		g.BraidLen(Coord{0, 0}, Coord{20, 20}, true, wallAtCol10)
		g.BraidLen(Coord{0, 0}, Coord{20, 20}, false, nil)
	})
	if probe != 0 {
		t.Errorf("BraidLen allocates %v times, want 0", probe)
	}
}

// benchRouting is a 100-qubit (21x21-tile) STAR grid with a fixed 15% of its ancillas
// busy, and CNOT-like endpoint pairs: the neighbours of two data qubits.
func benchRouting(b *testing.B) (*Grid, func(Coord) bool, [][2][]Coord) {
	g := NewSTARGrid(100)
	rng := rand.New(rand.NewSource(7))
	busy := map[Coord]bool{}
	for id := 0; id < g.NumAncilla(); id++ {
		if rng.Float64() < 0.15 {
			busy[g.AncillaTile(id)] = true
		}
	}
	pairs := make([][2][]Coord, 64)
	for i := range pairs {
		q1, q2 := rng.Intn(g.NumQubits()), rng.Intn(g.NumQubits())
		pairs[i] = [2][]Coord{
			g.AncillaNeighbors(g.DataTile(q1), nil),
			g.AncillaNeighbors(g.DataTile(q2), nil),
		}
	}
	blocked := func(c Coord) bool { return busy[c] }
	g.ShortestAncillaPath(pairs[0][0], pairs[0][1], blocked) // sizes the grid's scratch
	b.ReportAllocs()
	b.ResetTimer()
	return g, blocked, pairs
}

// BenchmarkShortestAncillaPath times the greedy baseline's BFS between
// the neighbour sets of two data qubits on a partly busy grid.
func BenchmarkShortestAncillaPath(b *testing.B) {
	g, blocked, pairs := benchRouting(b)
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		g.ShortestAncillaPath(p[0], p[1], blocked)
	}
}

// BenchmarkShortestAncillaPathNoRoute times a search that floods half the
// grid before finding its destination walled off: it must not allocate.
func BenchmarkShortestAncillaPathNoRoute(b *testing.B) {
	g, _, _ := benchRouting(b)
	for i := 0; i < b.N; i++ {
		g.ShortestAncillaPath([]Coord{{0, 0}}, []Coord{{0, 20}}, wallAtCol10)
	}
}
