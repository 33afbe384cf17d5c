package core

import (
	"fmt"
	"testing"

	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/sim"
)

func testMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quiet(t *testing.T, m *Machine) {
	t.Helper()
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(Config{N: 4, BlockWords: 4, L1Lines: 3, L1Assoc: 2}); err == nil {
		t.Error("bad L1 shape accepted")
	}
	m := testMachine(t, Config{N: 4})
	if m.Processors() != 16 {
		t.Errorf("Processors() = %d", m.Processors())
	}
	if m.BlockWords() != 16 {
		t.Errorf("default block words = %d", m.BlockWords())
	}
}

func TestLineOf(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 8})
	line, off := m.LineOf(19)
	if line != 2 || off != 3 {
		t.Errorf("LineOf(19) = (%d,%d), want (2,3)", line, off)
	}
}

// TestLineOfDivides holds LineOf's shift and mask for a power-of-two
// block, and its divide otherwise, to addr/bw and addr%bw.
func TestLineOfDivides(t *testing.T) {
	for bw := 2; bw <= 33; bw++ {
		m := testMachine(t, Config{N: 2, BlockWords: bw})
		for _, a := range []Addr{0, 1, Addr(bw - 1), Addr(bw), 12345, 1<<40 + 7, ^Addr(0)} {
			line, off := m.LineOf(a)
			if line != cache.Line(a/Addr(bw)) || off != int(a%Addr(bw)) {
				t.Errorf("BlockWords %d: LineOf(%d) = (%d,%d)", bw, a, line, off)
			}
		}
	}
}

func TestSeedAndReadMemory(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4})
	// A write spanning two lines (and so two home columns).
	m.SeedMemory(2, []uint64{10, 20, 30, 40})
	for i, want := range []uint64{10, 20, 30, 40} {
		if got := m.ReadMemory(Addr(2 + i)); got != want {
			t.Errorf("mem[%d] = %d, want %d", 2+i, got, want)
		}
	}
	if got := m.ReadCoherent(3); got != 20 {
		t.Errorf("ReadCoherent(3) = %d, want 20", got)
	}
}

func TestProgramLoadStore(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4})
	m.SeedMemory(0, []uint64{1, 2, 3, 4})
	var got uint64
	m.Spawn(0, func(c *Ctx) {
		got = c.Load(1)
		c.Store(100, got*10)
	})
	m.Run()
	if got != 2 {
		t.Errorf("load = %d, want 2", got)
	}
	if v := m.ReadCoherent(100); v != 20 {
		t.Errorf("stored value = %d, want 20", v)
	}
	quiet(t, m)
}

func TestProducerConsumerThroughSharedMemory(t *testing.T) {
	m := testMachine(t, Config{N: 3, BlockWords: 4})
	const flagAddr, dataAddr = 0, 64
	var got uint64
	m.Spawn(0, func(c *Ctx) {
		c.Store(dataAddr, 12345)
		c.Store(flagAddr, 1)
	})
	m.Spawn(8, func(c *Ctx) { // opposite corner of the grid
		for c.Load(flagAddr) == 0 {
			c.Sleep(500 * sim.Nanosecond)
		}
		got = c.Load(dataAddr)
	})
	m.Run()
	if got != 12345 {
		t.Fatalf("consumer read %d, want 12345", got)
	}
	quiet(t, m)
}

func TestL1FiltersRepeatLoads(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4, L1Lines: 8, L1Assoc: 2})
	m.SeedMemory(0, []uint64{7})
	m.Spawn(0, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			if v := c.Load(0); v != 7 {
				t.Errorf("load %d = %d, want 7", i, v)
			}
		}
	})
	m.Run()
	st := m.Processor(0).Stats()
	if st.L1Hits != 9 {
		t.Errorf("L1 hits = %d, want 9", st.L1Hits)
	}
	// Only one coherence transaction should have happened.
	if txns := m.Metrics().Txns[coherence.READ]; txns.Count != 1 {
		t.Errorf("READ transactions = %d, want 1", txns.Count)
	}
	quiet(t, m)
}

func TestL1InvalidatedByRemoteWrite(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4, L1Lines: 8, L1Assoc: 2})
	m.SeedMemory(0, []uint64{5})
	var first, second uint64
	m.Spawn(0, func(c *Ctx) {
		first = c.Load(0)
		c.Sleep(100 * sim.Microsecond)
		second = c.Load(0) // must see the remote write, not the stale L1 copy
	})
	m.Spawn(3, func(c *Ctx) {
		c.Sleep(20 * sim.Microsecond)
		c.Store(0, 99)
	})
	m.Run()
	if first != 5 || second != 99 {
		t.Fatalf("loads = %d, %d; want 5, 99", first, second)
	}
	quiet(t, m)
}

func TestWriteThroughKeepsL1Subset(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4, L1Lines: 4, L1Assoc: 2})
	m.SpawnAll(func(c *Ctx) {
		base := Addr(c.ID() * 64)
		for i := Addr(0); i < 12; i++ {
			c.Store(base+i*4, uint64(c.ID()))
			c.Load((base + i*4) % 96) // overlap with neighbours
		}
	})
	m.Run()
	quiet(t, m) // includes the subset check
}

func TestCtxTASAndRelease(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4})
	counterAddr := Addr(3) // word 3 of the lock line: same line as the lock
	var sum uint64
	done := 0
	for id := 0; id < 4; id++ {
		m.Spawn(id, func(c *Ctx) {
			for i := 0; i < 5; i++ {
				for !c.TestAndSet(0) {
					c.Sleep(1 * sim.Microsecond)
				}
				v := c.Load(counterAddr)
				c.Store(counterAddr, v+1)
				c.Store(0, 0) // release: clear the lock word
				c.Sleep(500 * sim.Nanosecond)
			}
			done++
		})
	}
	m.Run()
	if done != 4 {
		t.Fatalf("%d programs finished, want 4", done)
	}
	sum = m.ReadCoherent(counterAddr)
	if sum != 20 {
		t.Fatalf("counter = %d, want 20", sum)
	}
	quiet(t, m)
}

func TestCtxSyncQueueLock(t *testing.T) {
	m := testMachine(t, Config{N: 3, BlockWords: 4})
	const lockAddr, counterAddr = 0, 2 // counter shares the lock line (word 2)
	finished := 0
	m.SpawnAll(func(c *Ctx) {
		for i := 0; i < 3; i++ {
			r := c.SyncAcquire(lockAddr)
			for !r.Acquired {
				if !r.MustSpin {
					t.Errorf("cpu %d: acquire neither acquired nor spin", c.ID())
					return
				}
				for !c.TestAndSet(lockAddr) {
					c.Sleep(1 * sim.Microsecond)
				}
				r.Acquired = true
			}
			v := c.Load(counterAddr)
			c.Store(counterAddr, v+1)
			if !c.SyncRelease(lockAddr) {
				c.Store(lockAddr, 0) // degenerate software release
			}
			c.Sleep(200 * sim.Nanosecond)
		}
		finished++
	})
	m.Run()
	if finished != 9 {
		t.Fatalf("%d programs finished, want 9", finished)
	}
	if got := m.ReadCoherent(counterAddr); got != 27 {
		t.Fatalf("counter = %d, want 27", got)
	}
	quiet(t, m)
}

func TestMetricsRender(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4})
	m.Spawn(0, func(c *Ctx) {
		c.Store(0, 1)
		c.Load(64)
	})
	m.Run()
	mt := m.Metrics()
	if mt.Loads != 1 || mt.Stores != 1 {
		t.Errorf("metrics refs = %d loads %d stores", mt.Loads, mt.Stores)
	}
	s := mt.String()
	for _, want := range []string{"elapsed", "bus operations", "READ"} {
		if !contains(s, want) {
			t.Errorf("metrics report missing %q:\n%s", want, s)
		}
	}
}

func TestAllocateProgram(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4})
	m.SeedMemory(0, []uint64{9, 9, 9, 9})
	m.Spawn(0, func(c *Ctx) {
		c.Allocate(0)
		for i := Addr(0); i < 4; i++ {
			c.Store(i, uint64(i+1))
		}
	})
	m.Run()
	for i := Addr(0); i < 4; i++ {
		if got := m.ReadCoherent(i); got != uint64(i+1) {
			t.Errorf("word %d = %d, want %d", i, got, i+1)
		}
	}
	quiet(t, m)
}

func TestDeterministicPrograms(t *testing.T) {
	run := func() (sim.Time, string) {
		m := testMachine(t, Config{N: 3, BlockWords: 4, L1Lines: 4, L1Assoc: 2})
		m.SpawnAll(func(c *Ctx) {
			for i := 0; i < 10; i++ {
				a := Addr((c.ID()*7 + i*13) % 40)
				if i%2 == 0 {
					c.Store(a, uint64(c.ID()*100+i))
				} else {
					c.Load(a)
				}
			}
		})
		end := m.Run()
		fp := ""
		for a := Addr(0); a < 40; a++ {
			fp += fmt.Sprint(m.ReadCoherent(a), ",")
		}
		return end, fp
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic machine runs: %v vs %v", t1, t2)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
