package coherence

import (
	"fmt"
	"testing"

	"multicube/internal/cache"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// splitmix64 is the deterministic PRNG used across the repository's
// randomized tests.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// runRandomWorkload drives every node through opsPerNode random reads and
// writes over a small set of hot lines, all nodes concurrently, and
// returns the final simulated time. Writes deposit unique values; reads
// verify they only ever observe deposited values (or zero).
func runRandomWorkload(t *testing.T, k *sim.Kernel, s *System, seed uint64, opsPerNode, lines int) sim.Time {
	t.Helper()
	launchRandomWorkload(t, k, s, seed, opsPerNode, lines)
	return k.Run()
}

// launchRandomWorkload schedules runRandomWorkload's programs without
// running the kernel.
func launchRandomWorkload(t *testing.T, k *sim.Kernel, s *System, seed uint64, opsPerNode, lines int) {
	t.Helper()
	written := map[uint64]bool{0: true}
	nextVal := uint64(1)
	n := s.Config().N

	var launch func(nd *Node, rng *splitmix64, remaining int)
	launch = func(nd *Node, rng *splitmix64, remaining int) {
		if remaining == 0 {
			return
		}
		line := cache.Line(rng.intn(lines))
		think := sim.Time(rng.intn(2000))
		k.After(think, func() {
			if rng.intn(2) == 0 {
				nd.Read(line, func(Result) {
					e := nd.CacheEntry(line)
					if e == nil {
						t.Errorf("node %v: line %d missing after read", nd.ID(), line)
					} else if !written[e.Data[2]] {
						t.Errorf("node %v read unwritten value %d from line %d", nd.ID(), e.Data[2], line)
					}
					launch(nd, rng, remaining-1)
				})
			} else {
				v := nextVal
				nextVal++
				written[v] = true
				nd.Write(line, func(Result) {
					e := nd.CacheEntry(line)
					if e == nil || e.State != Modified {
						t.Errorf("node %v: line %d not modified after write", nd.ID(), line)
					} else {
						e.Data[2] = v
					}
					launch(nd, rng, remaining-1)
				})
			}
		})
	}

	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			rng := splitmix64(seed ^ uint64(r*131+c*17+1))
			launch(s.Node(topology.Coord{Row: r, Col: c}), &rng, opsPerNode)
		}
	}
}

func TestRandomWorkloadInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k, s := testSystem(t, 4)
			runRandomWorkload(t, k, s, seed, 25, 6)
			checkQuiet(t, s)
		})
	}
}

func TestRandomWorkloadBoundedCachesAndTables(t *testing.T) {
	// The same storm with tight caches and tables: every structural
	// corner (victim writebacks, MLT overflows, retained tags) is in
	// play, and the invariants must still hold.
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k, s := testSystem(t, 4, func(c *Config) {
				c.CacheLines = 4
				c.CacheAssoc = 2
				c.MLTEntries = 2
				c.MLTAssoc = 1
				c.Snarf = true
			})
			runRandomWorkload(t, k, s, seed, 25, 6)
			checkQuiet(t, s)
		})
	}
}

func TestRandomWorkloadDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, string) {
		k, s := testSystem(t, 3)
		end := runRandomWorkload(t, k, s, 42, 30, 5)
		// Fingerprint the final cache states.
		fp := ""
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				nd := s.Node(topology.Coord{Row: r, Col: c})
				nd.Cache().ForEach(func(e *cache.Entry) {
					fp += fmt.Sprintf("(%d,%d)%d:%d:%d;", r, c, e.Line, e.State, e.Data[2])
				})
			}
		}
		return end, k.Executed(), fp
	}
	t1, e1, f1 := run()
	t2, e2, f2 := run()
	if t1 != t2 || e1 != e2 || f1 != f2 {
		t.Fatalf("nondeterministic run: (%v,%d) vs (%v,%d)\n%s\nvs\n%s", t1, e1, t2, e2, f1, f2)
	}
}

func TestRandomLockStorm(t *testing.T) {
	// Every node repeatedly acquires and releases one SYNC lock,
	// incrementing a counter word under mutual exclusion. The final count
	// must equal the total number of critical sections.
	k, s := testSystem(t, 3)
	line := cache.Line(4)
	const perNode = 10
	n := s.Config().N
	total := 0

	var acquire func(nd *Node, rng *splitmix64, remaining int)
	var critical func(nd *Node, rng *splitmix64, remaining int)
	acquire = func(nd *Node, rng *splitmix64, remaining int) {
		if remaining == 0 {
			return
		}
		k.After(sim.Time(rng.intn(3000)), func() {
			nd.SyncAcquire(line, func(r Result) {
				if r.MustSpin {
					// Fall back to spinning test-and-set.
					var spin func()
					spin = func() {
						nd.TestAndSet(line, func(tr Result) {
							if tr.Acquired {
								critical(nd, rng, remaining)
								return
							}
							k.After(500, spin)
						})
					}
					spin()
					return
				}
				if !r.Acquired {
					t.Errorf("node %v: unexpected acquire result %+v", nd.ID(), r)
					return
				}
				critical(nd, rng, remaining)
			})
		})
	}
	critical = func(nd *Node, rng *splitmix64, remaining int) {
		e := nd.CacheEntry(line)
		if e == nil || e.State != Modified {
			t.Errorf("node %v in critical section without modified line", nd.ID())
			return
		}
		e.Data[3]++ // the protected counter
		total++
		k.After(sim.Time(rng.intn(1000)), func() {
			if !nd.SyncRelease(line) {
				t.Errorf("node %v: release degenerated", nd.ID())
				return
			}
			acquire(nd, rng, remaining-1)
		})
	}

	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			rng := splitmix64(uint64(r*31 + c*7 + 99))
			acquire(s.Node(topology.Coord{Row: r, Col: c}), &rng, perNode)
		}
	}
	k.Run()
	if total != n*n*perNode {
		t.Fatalf("completed %d critical sections, want %d", total, n*n*perNode)
	}
	// Find the final holder and verify the counter.
	found := false
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := s.Node(topology.Coord{Row: r, Col: c})
			if e, ok := nd.Cache().Lookup(line); ok && e.State == Modified {
				found = true
				if e.Data[3] != uint64(total) {
					t.Errorf("counter = %d, want %d", e.Data[3], total)
				}
			}
		}
	}
	if !found {
		t.Error("no final holder of the lock line")
	}
	checkQuiet(t, s)
}
