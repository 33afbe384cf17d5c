package topology

import "fmt"

// Grid is the two-dimensional Multicube (the Wisconsin Multicube proper):
// n rows × n columns of processors, n row buses, n column buses, with main
// memory interleaved across the column buses by line. It offers flat
// row/column addressing that the coherence machinery uses directly.
type Grid struct {
	n int
}

// NewGrid returns an n×n grid. n must be at least 2.
func NewGrid(n int) (Grid, error) {
	if n < 2 {
		return Grid{}, fmt.Errorf("topology: grid size %d, need at least 2", n)
	}
	return Grid{n: n}, nil
}

// N returns the number of processors per bus (rows == columns == n).
func (g Grid) N() int { return g.n }

// Processors returns n².
func (g Grid) Processors() int { return g.n * g.n }

// NodeID is the linearized address of a node, in [0, Processors()).
type NodeID int

// LineID identifies a coherency block (a cache line) by index.
type LineID uint64

// Coord is a (row, column) processor address in the grid.
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// ID linearizes a coordinate in row-major order.
func (g Grid) ID(c Coord) NodeID { return NodeID(c.Row*g.n + c.Col) }

// Coord recovers the coordinate of a linearized id.
func (g Grid) Coord(id NodeID) Coord {
	return Coord{Row: int(id) / g.n, Col: int(id) % g.n}
}

// Valid reports whether c lies within the grid.
func (g Grid) Valid(c Coord) bool {
	return c.Row >= 0 && c.Row < g.n && c.Col >= 0 && c.Col < g.n
}

// HomeColumn maps a line to the column bus through which its main memory
// module is reached: memory is interleaved across the column buses by
// line index, so every line has a home bus "in order to assure
// sequentiality of access in cases of competing, mutually exclusive
// requests" (Section 6).
func (g Grid) HomeColumn(line LineID) int { return int(line % LineID(g.n)) }
