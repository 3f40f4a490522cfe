package lattice

// routing.go provides geometric path search over ancilla tiles: the BFS
// shortest path used by the greedy baseline and the row/column "braid"
// paths used by the AutoBraid-style baseline.

// routeScratch is ShortestAncillaPath's reusable search state, dense over
// the grid's row-major tile indices. A search stamps the tiles it marks
// with its own epoch, so starting the next search is one increment rather
// than a clear; the arrays are allocated on a grid's first search and
// reused by every later one.
type routeScratch struct {
	epoch   uint32
	visited []uint32 // tile -> epoch of the last search that reached it
	isDst   []uint32 // tile -> epoch of the last search that marked it a destination
	prev    []int32  // tile -> BFS predecessor tile, -1 for a source
	queue   []int32  // FIFO of tile indices; each tile enters at most once
}

// begin sizes the scratch for g on first use and opens a new epoch.
func (s *routeScratch) begin(g *Grid) uint32 {
	if n := g.rows * g.cols; len(s.visited) != n {
		*s = routeScratch{
			visited: make([]uint32, n),
			isDst:   make([]uint32, n),
			prev:    make([]int32, n),
			queue:   make([]int32, 0, n),
		}
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.visited)
		clear(s.isDst)
		s.epoch = 1
	}
	return s.epoch
}

// ShortestAncillaPath runs a breadth-first search over ancilla tiles from
// any tile in src to any tile in dst, skipping tiles for which blocked
// returns true (busy ancillas). Both src and dst members must be ancilla
// tiles; blocked is not consulted for them if they coincide. It returns the
// tile sequence including the chosen endpoints, or nil if no path exists.
// Sources are seeded in src order and neighbours expanded North, South,
// East, West, so ties between equal-length paths break deterministically.
// The search runs on the grid's reusable scratch: the returned path is its
// only allocation.
func (g *Grid) ShortestAncillaPath(src, dst []Coord, blocked func(Coord) bool) []Coord {
	if len(src) == 0 || len(dst) == 0 {
		return nil
	}
	s := &g.route
	ep := s.begin(g)
	anyDst := false
	for _, c := range dst {
		if g.Kind(c) == TileAncilla && (blocked == nil || !blocked(c)) {
			s.isDst[g.idx(c)] = ep
			anyDst = true
		}
	}
	if !anyDst {
		return nil
	}
	queue := s.queue[:0]
	for _, c := range src {
		if g.Kind(c) != TileAncilla || (blocked != nil && blocked(c)) {
			continue
		}
		i := g.idx(c)
		if s.visited[i] == ep {
			continue
		}
		s.visited[i] = ep
		s.prev[i] = -1
		queue = append(queue, int32(i))
		if s.isDst[i] == ep {
			return []Coord{c}
		}
	}
	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		c := Coord{int(ci) / g.cols, int(ci) % g.cols}
		for d := North; d <= West; d++ {
			n := c.Step(d)
			if g.Kind(n) != TileAncilla {
				continue
			}
			ni := g.idx(n)
			if s.visited[ni] == ep || (blocked != nil && blocked(n)) {
				continue
			}
			s.visited[ni] = ep
			s.prev[ni] = ci
			if s.isDst[ni] == ep {
				return g.tracePath(int32(ni))
			}
			queue = append(queue, int32(ni))
		}
	}
	return nil
}

// tracePath follows the scratch's predecessor links back from tile end to
// its source and returns the path source-first.
func (g *Grid) tracePath(end int32) []Coord {
	prev := g.route.prev
	n := 1
	for i := end; prev[i] >= 0; i = prev[i] {
		n++
	}
	path := make([]Coord, n)
	for i := end; n > 0; i = prev[i] {
		n--
		path[n] = Coord{int(i) / g.cols, int(i) % g.cols}
	}
	return path
}

// BraidPath builds an AutoBraid-style two-segment path between ancilla
// tiles a and b: it walks along a's row to b's column, then along b's
// column (an "L" route). Every tile on the route must be a live, unblocked
// ancilla; otherwise it tries the transposed "L" (column first), and
// returns nil if neither works. This mimics the row/column braid corridors
// of Hua et al. without global search.
func (g *Grid) BraidPath(a, b Coord, blocked func(Coord) bool) []Coord {
	for _, rowFirst := range [2]bool{true, false} {
		if g.BraidLen(a, b, rowFirst, blocked) > 0 {
			return BraidRoute(a, b, rowFirst)
		}
	}
	return nil
}

// BraidLen probes the L route from a to b that walks row-first (along a's
// row to b's column, then along b's column) or column-first. It returns
// the route's tile count, |Δrow|+|Δcol|+1, if every tile on it is a live,
// unblocked ancilla, and 0 otherwise, checking tiles from a onward and
// stopping at the first failure. It allocates nothing, so a caller can
// compare many candidate braids and build only the winner with BraidRoute.
func (g *Grid) BraidLen(a, b Coord, rowFirst bool, blocked func(Coord) bool) int {
	n := 0
	for c, more := a, true; more; c, more = braidNext(c, b, rowFirst) {
		if g.Kind(c) != TileAncilla || (blocked != nil && blocked(c)) {
			return 0
		}
		n++
	}
	return n
}

// BraidRoute returns the tiles of the L route from a to b, row-first or
// column-first, without checking them: callers build the route BraidLen
// already found open.
func BraidRoute(a, b Coord, rowFirst bool) []Coord {
	path := make([]Coord, 0, a.Dist(b)+1)
	for c, more := a, true; more; c, more = braidNext(c, b, rowFirst) {
		path = append(path, c)
	}
	return path
}

// braidNext returns the tile after c on the L route to b, and false once c
// is b. A row-first route finishes the horizontal leg before the vertical
// one; a column-first route the reverse.
func braidNext(c, b Coord, rowFirst bool) (Coord, bool) {
	switch {
	case c.Col != b.Col && (rowFirst || c.Row == b.Row):
		c.Col += sign(b.Col - c.Col)
	case c.Row != b.Row:
		c.Row += sign(b.Row - c.Row)
	default:
		return c, false
	}
	return c, true
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// PathContiguous reports whether path is a sequence of 4-adjacent live
// ancilla tiles (used to validate scheduler output in tests and as a
// defensive check in the engine).
func (g *Grid) PathContiguous(path []Coord) bool {
	for i, c := range path {
		if g.Kind(c) != TileAncilla {
			return false
		}
		if i > 0 && c.Dist(path[i-1]) != 1 {
			return false
		}
	}
	return true
}
