package coherence

import (
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Property tests for the canonical fingerprint: relabeling the rows of a
// machine (the only symmetry of the grid — columns own distinct memory
// modules and are NOT interchangeable) must map fingerprints exactly,
// and structurally different states must not collide. These are the two
// halves the model checker's visited-state table depends on: the first
// is soundness of canonicalization (isomorphic states dedup), the second
// is its usefulness (distinct states don't).

// fpOp is one scripted protocol operation for building a state.
type fpOp struct {
	kind byte // 'r' read, 'w' write, 'a' allocate, 'b' write-back, 't' test-and-set
	row  int
	col  int
	line uint64
}

// canonChooser makes every scheduling choice by the candidates'
// canonical (row- and column-permuted) content keys, least first. The
// chooser-less order is physical scheduling order, which is NOT symmetric
// under row relabeling — two equal-time purge deliveries fire in row
// order, so a machine and its relabeling would drift into genuinely
// different interleavings and the mid-flight invariance property would
// be vacuously false. With the same canonical policy installed on both
// machines they traverse isomorphic executions step for step.
type canonChooser struct {
	s     *System
	perm  []int // physical row -> canonical row; nil is identity
	cperm []int // physical col -> canonical col; nil is identity
}

func (c *canonChooser) permRow(r int) int {
	if r < 0 || c.perm == nil {
		return r
	}
	return c.perm[r]
}

func (c *canonChooser) permCol(col int) int {
	if col < 0 || c.cperm == nil {
		return col
	}
	return c.cperm[col]
}

func (c *canonChooser) key(tag any) uint64 {
	h := fphash.New()
	hashOp := func(op *Op) {
		h.Word(uint64(op.Txn))
		h.Word(uint64(op.Flags))
		h.Word(uint64(op.Line))
		h.Word(uint64(int64(c.permRow(op.Origin.Row))))
		h.Word(uint64(int64(c.permCol(op.Origin.Col))))
		if op.Flags&XFER != 0 {
			h.Word(uint64(int64(c.permRow(op.Target.Row))))
			h.Word(uint64(int64(c.permCol(op.Target.Col))))
		}
		h.Bit(op.Data != nil)
		for _, w := range op.Data {
			h.Word(w)
		}
	}
	hashBus := func(b *bus.Bus) {
		idx := c.s.busIndex(b)
		switch n := c.s.cfg.N; {
		case idx >= 0 && idx < n:
			idx = c.permRow(idx) // row buses permute with their rows
		case idx >= n && idx < 2*n:
			idx = n + c.permCol(idx-n) // column buses with their columns
		}
		h.Word(uint64(int64(idx)))
	}
	switch t := tag.(type) {
	case EnqueueTag:
		h.Word(0x10)
		h.Word(uint64(int64(c.permRow(t.Issuer().Row))))
		h.Word(uint64(int64(c.permCol(t.Issuer().Col))))
		h.Word(uint64(t.Dim()))
		hashBus(c.s.enqueueBus(t))
		hashOp(t.Op)
	case bus.GrantTag:
		h.Word(0x11)
		hashBus(t.B)
	case bus.DeliverTag:
		h.Word(0x12)
		hashBus(t.B)
		if op, ok := t.Pkt().(*Op); ok {
			hashOp(op)
		}
	case *Op: // a queued packet at a bus "grant" choice point
		h.Word(0x13)
		hashOp(t)
	default:
		h.Word(0x1f)
	}
	return h.Sum()
}

func (c *canonChooser) Choose(cp sim.ChoicePoint, cands []sim.Candidate) int {
	best, bestKey := 0, c.key(cands[0].Tag)
	for i := 1; i < len(cands); i++ {
		if k := c.key(cands[i].Tag); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// buildState applies the script with each op's row passed through rowMap
// (identity when nil), runs the kernel for the given number of steps
// (-1 drains it), and returns the system. A node allows only one
// outstanding transaction, so each node's ops are chained through
// completion callbacks, exactly as the model checker drives programs.
func buildState(t testing.TB, n int, script []fpOp, rowMap []int, steps int) *System {
	return buildStateRC(t, n, script, rowMap, nil, steps)
}

// buildStateRC is buildState with an additional column relabeling
// colMap applied to each op's column. Scripts passed with a non-nil
// colMap must keep every line's home column a fixed point of colMap —
// the precondition of the column symmetry itself.
func buildStateRC(t testing.TB, n int, script []fpOp, rowMap, colMap []int, steps int) *System {
	t.Helper()
	k := sim.NewKernel()
	s := MustNewSystem(k, Config{N: n, BlockWords: 2, MLTEntries: 2, MLTAssoc: 1})
	var perm, cperm []int
	if rowMap != nil {
		perm = invert(rowMap)
	}
	if colMap != nil {
		cperm = invert(colMap)
	}
	s.EnableModelChecking(&canonChooser{s: s, perm: perm, cperm: cperm})
	queues := make(map[topology.Coord][]fpOp)
	var order []topology.Coord
	for _, o := range script {
		row, col := o.row, o.col
		if rowMap != nil {
			row = rowMap[row]
		}
		if colMap != nil {
			col = colMap[col]
		}
		at := topology.Coord{Row: row, Col: col}
		if _, ok := queues[at]; !ok {
			order = append(order, at)
		}
		queues[at] = append(queues[at], o)
	}
	seq := uint64(0) // issue-order write values; identical across relabelings
	var issue func(at topology.Coord)
	issue = func(at topology.Coord) {
		q := queues[at]
		if len(q) == 0 {
			return
		}
		o := q[0]
		queues[at] = q[1:]
		nd := s.Node(at)
		line := cache.Line(o.line)
		next := func(Result) { issue(at) }
		switch o.kind {
		case 'r':
			nd.Read(line, next)
		case 'w':
			seq++
			v := 1000 + seq
			nd.Write(line, func(Result) {
				// The protocol layer only obtains the line modified;
				// the word store goes through the cache entry, as the
				// machine layer does after Write completes.
				if e := nd.CacheEntry(line); e != nil && len(e.Data) > 1 {
					e.Data[1] = v
				}
				issue(at)
			})
		case 'a':
			nd.Allocate(line, next)
		case 'b':
			nd.WriteBack(line, next)
		case 't':
			nd.TestAndSet(line, next)
		}
	}
	for _, at := range order {
		issue(at)
	}
	if steps < 0 {
		// Bounded drain: the canonical tie-break is an unfair schedule,
		// and an unfair schedule can livelock a retry loop (exactly the
		// executions the model checker bounds with per-run step budgets).
		// Isomorphism is preserved as long as both machines run the same
		// number of steps, drained or not.
		steps = 20000
	}
	for i := 0; i < steps && k.Pending() > 0; i++ {
		k.Step()
	}
	return s
}

// invert returns the permutation mapping physical row to canonical row
// given the row relabeling used at construction.
func invert(rowMap []int) []int {
	inv := make([]int, len(rowMap))
	for canon, phys := range rowMap {
		inv[phys] = canon
	}
	return inv
}

// TestFingerprintRowPermutationInvariant builds each scripted state
// twice — once as written and once with rows relabeled — at several
// kernel depths (quiescent AND mid-transaction), and checks the
// relabeling maps one fingerprint onto the other under every
// permutation of every grid size.
func TestFingerprintRowPermutationInvariant(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		script []fpOp
	}{
		{"two-writers", 2, []fpOp{{'w', 0, 0, 0}, {'w', 1, 1, 0}}},
		{"cross-column", 2, []fpOp{{'w', 0, 0, 1}, {'r', 1, 0, 1}, {'w', 1, 1, 2}}},
		{"mlt-churn", 2, []fpOp{{'w', 0, 0, 0}, {'w', 0, 0, 2}, {'w', 0, 0, 4}, {'r', 1, 1, 0}}},
		{"lock-and-data", 2, []fpOp{{'t', 0, 0, 0}, {'w', 1, 0, 2}, {'b', 1, 0, 2}}},
		{"alloc", 2, []fpOp{{'a', 0, 1, 3}, {'r', 1, 0, 3}}},
		{"three-rows", 3, []fpOp{{'w', 0, 0, 0}, {'r', 1, 2, 0}, {'w', 2, 1, 4}}},
	}
	perms2 := [][]int{{0, 1}, {1, 0}}
	perms3 := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, tc := range cases {
		perms := perms2
		if tc.n == 3 {
			perms = perms3
		}
		for _, steps := range []int{-1, 0, 3, 9} {
			base := buildState(t, tc.n, tc.script, nil, steps)
			want := base.Fingerprint(nil, nil)
			for _, rowMap := range perms {
				relabeled := buildState(t, tc.n, tc.script, rowMap, steps)
				if got := relabeled.Fingerprint(invert(rowMap), nil); got != want {
					t.Errorf("%s (steps=%d): rows relabeled by %v fingerprint %#x, want %#x",
						tc.name, steps, rowMap, got, want)
				}
			}
		}
	}
}

// TestFingerprintDistinguishesStates pits structurally different states
// against each other — including pairs chosen to be confusable (same
// multiset of operations at different coordinates or lines) — and
// requires distinct canonical fingerprints. Canonical means the minimum
// over all row relabelings, exactly as the model checker computes it.
func TestFingerprintDistinguishesStates(t *testing.T) {
	canonical := func(s *System, n int) uint64 {
		perms := [][]int{{0, 1}}
		if n == 2 {
			perms = [][]int{{0, 1}, {1, 0}}
		}
		best := ^uint64(0)
		for _, p := range perms {
			if fp := s.Fingerprint(p, nil); fp < best {
				best = fp
			}
		}
		return best
	}
	states := []struct {
		name   string
		script []fpOp
	}{
		{"empty", nil},
		{"one-write", []fpOp{{'w', 0, 0, 0}}},
		{"one-write-other-line", []fpOp{{'w', 0, 0, 2}}},
		{"one-write-other-column", []fpOp{{'w', 0, 1, 0}}}, // columns are NOT symmetric
		{"one-read", []fpOp{{'r', 0, 0, 0}}},
		{"two-writes-same-row", []fpOp{{'w', 0, 0, 0}, {'w', 0, 1, 1}}},
		{"two-writes-same-col", []fpOp{{'w', 0, 0, 0}, {'w', 1, 0, 1}}},
		{"write-then-writeback", []fpOp{{'w', 0, 0, 0}, {'b', 0, 0, 0}}},
		{"tas-held", []fpOp{{'t', 0, 0, 0}}},
	}
	seen := make(map[uint64]string)
	for _, st := range states {
		s := buildState(t, 2, st.script, nil, -1)
		fp := canonical(s, 2)
		if prev, ok := seen[fp]; ok {
			t.Errorf("states %q and %q share canonical fingerprint %#x", prev, st.name, fp)
		}
		seen[fp] = st.name
	}
}

// TestFingerprintRandomizedRowInvariance drives seeded random scripts
// through the permutation property at random interruption depths — the
// randomized half of the table-driven test above.
func TestFingerprintRandomizedRowInvariance(t *testing.T) {
	rng := newScriptRand(0x5eed)
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		script := randomScript(rng, 2, 5)
		steps := int(rng.next() % 12)
		if steps == 11 {
			steps = -1
		}
		base := buildState(t, 2, script, nil, steps)
		relabeled := buildState(t, 2, script, []int{1, 0}, steps)
		if got, want := relabeled.Fingerprint([]int{1, 0}, nil), base.Fingerprint(nil, nil); got != want {
			t.Fatalf("iter %d (steps=%d, script %+v): swapped fingerprint %#x, want %#x",
				i, steps, script, got, want)
		}
	}
}

// scriptRand is a tiny splitmix64 so the property and fuzz code share a
// deterministic script generator without importing math/rand.
type scriptRand struct{ s uint64 }

func newScriptRand(seed uint64) *scriptRand { return &scriptRand{s: seed} }

func (r *scriptRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randomScript(r *scriptRand, n, maxOps int) []fpOp {
	kinds := []byte{'r', 'w', 'w', 'a', 'b', 't'}
	ops := 1 + int(r.next()%uint64(maxOps))
	script := make([]fpOp, ops)
	for i := range script {
		script[i] = fpOp{
			kind: kinds[r.next()%uint64(len(kinds))],
			row:  int(r.next() % uint64(n)),
			col:  int(r.next() % uint64(n)),
			line: r.next() % 6,
		}
	}
	return script
}

// FuzzFingerprintRowSwap fuzzes the row-permutation invariant: any
// operation script, interrupted at any depth, must fingerprint
// identically after a row swap. Script bytes are consumed three per
// operation (kind, coordinate, line); the first byte picks the
// interruption depth.
func FuzzFingerprintRowSwap(f *testing.F) {
	f.Add([]byte{0xff, 1, 0, 0})
	f.Add([]byte{4, 1, 0, 0, 0, 3, 2, 5, 1, 1})
	f.Add([]byte{0, 5, 2, 4, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 64 {
			t.Skip()
		}
		steps := int(data[0])
		if data[0] == 0xff {
			steps = -1 // drain
		}
		kinds := []byte{'r', 'w', 'a', 'b', 't'}
		var script []fpOp
		for i := 1; i+2 < len(data); i += 3 {
			script = append(script, fpOp{
				kind: kinds[int(data[i])%len(kinds)],
				row:  int(data[i+1]) % 2,
				col:  int(data[i+1]/2) % 2,
				line: uint64(data[i+2]) % 8,
			})
		}
		if len(script) == 0 {
			t.Skip()
		}
		base := buildState(t, 2, script, nil, steps)
		relabeled := buildState(t, 2, script, []int{1, 0}, steps)
		if got, want := relabeled.Fingerprint([]int{1, 0}, nil), base.Fingerprint(nil, nil); got != want {
			t.Fatalf("row swap changed fingerprint: %#x vs %#x (script %+v, steps %d)",
				got, want, script, steps)
		}
	})
}
