package workload

import (
	"fmt"

	"multicube/internal/core"
	"multicube/internal/memmodel"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// LitmusConfig compiles one memmodel litmus test to a timed DES stress
// program: Rounds copies of the test run back-to-back on one machine,
// each round over fresh addresses, with seeded random think time jittering
// every operation's issue point. The whole run records through
// core.RecordingMem into a single memmodel.History, which the
// sequential-consistency checker then judges — so one run validates
// Rounds independent instances of the test under bus contention from its
// neighbours.
type LitmusConfig struct {
	// Test names a memmodel litmus test (see memmodel.LitmusTests).
	Test string
	// N is the machine's grid dimension (default 2).
	N int
	// Rounds is the number of test instances to run (default 4).
	Rounds int
	// Seed drives the jitter; identical seeds give identical runs.
	Seed uint64
	// MaxJitter bounds the uniform random delay inserted before each
	// operation (default 2µs). Zero jitter still runs; use at least a few
	// bus-occupancy times to shake out orderings.
	MaxJitter sim.Time
	// SameColumn homes every variable of a round on one memory column,
	// serializing their bus traffic (mirrors the mc litmus-*-1col
	// presets).
	SameColumn bool
	// SCNodes caps the checker's search (0 = memmodel's default).
	SCNodes int
}

func (c *LitmusConfig) fillDefaults() {
	if c.N == 0 {
		c.N = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.MaxJitter == 0 {
		c.MaxJitter = 2 * sim.Microsecond
	}
}

// Placement names where the configuration homes a round's variables, as
// reports print it.
func (c LitmusConfig) Placement() string {
	if c.SameColumn {
		return "same-col"
	}
	return "split-col"
}

// LitmusSweep lists the runs of a litmus sweep in the order they are
// run: for the named test ("all" is the whole suite), each home-column
// placement — same-column only for a test of two or more variables, it
// is the split placement otherwise — times seeds consecutive jitter
// seeds from base.Seed. Every entry is base with Test, SameColumn and
// Seed set.
func LitmusSweep(test string, seeds int, base LitmusConfig) ([]LitmusConfig, error) {
	tests := memmodel.LitmusTests()
	if test != "all" {
		l, ok := memmodel.LitmusByName(test)
		if !ok {
			return nil, fmt.Errorf("workload: unknown litmus test %q", test)
		}
		tests = []memmodel.Litmus{l}
	}
	var runs []LitmusConfig
	for _, l := range tests {
		for _, same := range []bool{false, true} {
			if same && l.Vars < 2 {
				continue
			}
			for s := 0; s < seeds; s++ {
				c := base
				c.Test, c.SameColumn, c.Seed = l.Name, same, base.Seed+uint64(s)
				runs = append(runs, c)
			}
		}
	}
	return runs, nil
}

// LitmusReport is the outcome of one RunLitmus call.
type LitmusReport struct {
	Test    memmodel.Litmus
	History *memmodel.History
	Check   memmodel.Result
	Elapsed sim.Time
}

// litmusCoord spreads litmus threads over the grid corner-to-corner, the
// same placement the mc litmus presets use: thread p sits at row p%N,
// column (p + p/N)%N, so on a 2×2 grid the classic two-thread tests run
// diagonally and four-thread tests cover all four corners.
func litmusCoord(p, n int) topology.Coord {
	return topology.Coord{Row: p % n, Col: (p + p/n) % n}
}

// RunLitmus runs the configured litmus stress program and checks the
// captured history for sequential consistency.
func RunLitmus(cfg LitmusConfig) (LitmusReport, error) {
	cfg.fillDefaults()
	l, ok := memmodel.LitmusByName(cfg.Test)
	if !ok {
		return LitmusReport{}, fmt.Errorf("workload: unknown litmus test %q", cfg.Test)
	}
	if len(l.Procs) > cfg.N*cfg.N {
		return LitmusReport{}, fmt.Errorf("workload: litmus %s needs %d threads; %d×%d machine has %d",
			l.Name, len(l.Procs), cfg.N, cfg.N, cfg.N*cfg.N)
	}
	m := core.MustNew(core.Config{N: cfg.N})
	k := m.Kernel()
	bw := uint64(m.BlockWords())
	n := uint64(cfg.N)

	// Variable v of round r lives on its own line, placed so the home
	// column (line mod N) is v mod N — or column 0 for every variable
	// when SameColumn is set. Fresh lines per round keep rounds
	// independent in memory while they still contend on the buses.
	addrOf := func(r, v int) core.Addr {
		base := uint64(r*l.Vars+v) * n
		if !cfg.SameColumn {
			base += uint64(v) % n
		}
		return core.Addr(base * bw)
	}

	h := memmodel.NewHistory()
	for p, prog := range l.Procs {
		c := litmusCoord(p, cfg.N)
		id := c.Row*cfg.N + c.Col
		mem := core.Recorder(m, id, h)
		rng := NewRand(cfg.Seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15)
		prog := prog

		// Each thread runs its program once per round, strictly in
		// order, with a random pause before every operation.
		var step func(r, i int)
		step = func(r, i int) {
			if i == len(prog) {
				r, i = r+1, 0
				if r == cfg.Rounds {
					return
				}
			}
			op, r, i := prog[i], r, i
			k.After(sim.Time(rng.Intn(int(cfg.MaxJitter)+1)), func() {
				addr := addrOf(r, op.Var)
				next := func() { step(r, i+1) }
				if op.Write {
					// Unique nonzero values per (round, thread, step):
					// rounds never share addresses, so uniqueness per
					// round is uniqueness per location.
					val := uint64(1000 + 100*p + i)
					mem.StoreAsyncObs(addr, val, func(uint64) { next() })
				} else {
					mem.LoadAsync(addr, func(uint64) { next() })
				}
			})
		}
		step(0, 0)
	}

	elapsed := m.Run()
	return LitmusReport{
		Test:    l,
		History: h,
		Check:   memmodel.Check(h, memmodel.Options{MaxNodes: cfg.SCNodes}),
		Elapsed: elapsed,
	}, nil
}
