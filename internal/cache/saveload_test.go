package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// testLines is the line range mutate draws from and dump reads back.
const testLines = 12

// dump renders everything a cache holds, replacement metadata included.
func dump(c *Cache) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d stats=%+v\n", c.clock, c.stats)
	for i, set := range c.sets {
		for j := range set {
			fmt.Fprintf(&b, "set %d way %d: %+v\n", i, j, set[j])
		}
	}
	if !c.bounded() {
		for l := Line(0); l < testLines; l++ {
			if e := c.Probe(l); e != nil {
				fmt.Fprintf(&b, "line %d: %+v\n", l, *e)
			}
		}
	}
	return b.String()
}

// mutate applies one random operation.
func mutate(c *Cache, rng *rand.Rand) {
	line := Line(rng.Intn(testLines))
	switch rng.Intn(8) {
	case 0, 1:
		c.Insert(line, State(1+rng.Intn(3)), []uint64{rng.Uint64(), rng.Uint64()})
	case 2:
		c.Access(line)
	case 3:
		c.Touch(line)
	case 4:
		c.Invalidate(line) // leaves a retained tag
	case 5:
		c.Drop(line)
	case 6:
		if e, ok := c.Lookup(line); ok {
			e.Data[rng.Intn(len(e.Data))] = rng.Uint64()
			e.State = State(1 + rng.Intn(3))
		}
	case 7:
		c.MarkSnarf()
		// One pinnable line: a set with every way pinned takes no insert.
		if e, ok := c.Lookup(0); ok {
			e.Pinned = !e.Pinned
		}
	}
}

// TestSaveLoadRewinds: a cache of either shape, saved, driven through an
// unrelated future — emptied, churned, or barely touched — and loaded
// must be what it was at the save, slot for slot and clock for clock;
// over many rounds through one reused buffer, and twice from the same
// save (Load must not hand the buffer's memory to the cache).
func TestSaveLoadRewinds(t *testing.T) {
	for _, cfg := range []Config{{Lines: 8, Assoc: 2, BlockWords: 4}, {BlockWords: 4}} {
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(1))
		var st, empty Saved
		MustNew(cfg).Save(&empty)
		retained, pinned := 0, 0
		for round := 0; round < 300; round++ {
			for i := rng.Intn(6); i > 0; i-- {
				mutate(c, rng)
			}
			c.Save(&st)
			want := dump(c)
			for _, l := range strings.Split(want, "\n") {
				if strings.Contains(l, "State:0 ") && strings.Contains(l, "valid:true") {
					retained++
				}
				if strings.Contains(l, "Pinned:true") {
					pinned++
				}
			}
			for pass := 0; pass < 2; pass++ {
				switch round % 3 {
				case 0:
					c.Load(&empty)
				case 1:
					for i := 0; i < 40; i++ {
						mutate(c, rng)
					}
				default:
					mutate(c, rng)
				}
				c.Load(&st)
				if got := dump(c); got != want {
					t.Fatalf("%+v round %d pass %d: after Load\n%s\nat the save\n%s", cfg, round, pass, got, want)
				}
			}
		}
		// Load's scratch holds nothing between calls: entries the saved
		// cache had no use for must not pile up over a long search.
		if len(c.spare) != 0 || cap(c.spare) > 16 {
			t.Fatalf("%+v: %d entries (cap %d) left in Load's scratch after 600 loads", cfg, len(c.spare), cap(c.spare))
		}
		if retained == 0 || pinned == 0 {
			t.Fatalf("%+v: the saves caught %d retained tags and %d pinned lines", cfg, retained, pinned)
		}
	}
}
