package coherence

import "testing"

// TestReleasedOpPanics is the use-after-release guard's must-fail case:
// an operation released to the free list and then requested, or
// delivered, panics at every door an operation goes out through, instead
// of going out with whatever its next builder writes into it. The next
// newOp hands the same operation out again, cleared of the mark.
func TestReleasedOpPanics(t *testing.T) {
	_, s := testSystem(t, 2)
	row := &snooper{s: s, dim: Row, nodes: s.nodes[0]}
	for _, door := range []struct {
		name string
		use  func(*Op)
	}{
		{"issueRow", s.Node(at(0, 0)).issueRow},
		{"issueCol", s.Node(at(0, 0)).issueCol},
		{"Memory.issueAfter", func(op *Op) { s.MemoryAt(0).issueAfter(0, op) }},
		{"snooper.Snoop", func(op *Op) { row.Snoop(s.rows[0], op) }},
	} {
		name := door.name
		op := s.addrOp(READ, REQUEST, at(0, 0), 1, nil)
		s.release(op)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took a released operation without a panic", name)
				}
			}()
			door.use(op)
		}()
		if again := s.addrOp(READ, REQUEST, at(0, 0), 1, nil); again != op || again.released {
			t.Errorf("%s: newOp did not hand the released operation out again, cleared", name)
		}
	}
}
