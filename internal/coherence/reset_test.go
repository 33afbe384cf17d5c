package coherence

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// publicState renders everything a caller can read off a machine that is
// not protocol state proper (the fingerprint covers that): clocks, every
// public counter, generation and queue gauge, and whether hooks are set.
func publicState(s *System) string {
	var b strings.Builder
	k := s.Kernel()
	fmt.Fprintf(&b, "kernel now=%v executed=%d pending=%d\n", k.Now(), k.Executed(), k.Pending())
	fmt.Fprintf(&b, "txns=%v strays=%d dropped=%d reissues=%d\n", s.Stats(), s.StrayReplies(), s.DroppedOps(), s.Reissues())
	fmt.Fprintf(&b, "hooks oplog=%v fault=%v suppress=%v observer=%v unpoisoned=%v inclusions=%d\n",
		s.OpLog != nil, s.Fault != nil, s.SuppressSignal != nil, s.Observer != nil, s.DisableStaleReplyPoisoning, len(s.inclusions))
	n := s.Config().N
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := s.Node(topology.Coord{Row: r, Col: c})
			fmt.Fprintf(&b, "node(%d,%d) %+v gen=%d busy=%v hook=%v cache=%+v/%d mlt=%+v/%d\n", r, c,
				nd.Stats(), nd.gen, nd.Busy(), nd.OnInvalidate != nil,
				nd.Cache().Stats(), nd.Cache().Len(), nd.Table().Stats(), nd.Table().Len())
		}
	}
	for c := 0; c < n; c++ {
		st := s.MemoryAt(c).Store()
		fmt.Fprintf(&b, "mem%d %+v invalid=%d\n", c, st.Stats(), st.InvalidLines())
	}
	for i := 0; i < n; i++ {
		for _, x := range []*bus.Bus{s.RowBus(i), s.ColBus(i)} {
			fmt.Fprintf(&b, "%s gen=%d busy=%v %+v\n", x.Name(), x.Gen(), x.Busy(), x.Stats())
		}
	}
	return b.String()
}

// logOps installs an OpLog that records every bus operation with its
// issue time and returns the record.
func logOps(s *System) *[]string {
	var log []string
	s.OpLog = func(dim Dim, issuer topology.Coord, op *Op) {
		log = append(log, fmt.Sprintf("%v %v %v %v", s.Kernel().Now(), dim, issuer, op))
	}
	return &log
}

// TestResetEqualsFresh is the Reset ≡ NewSystem differential: a machine
// stopped at many points in the middle of a random program — operations
// queued, buses busy, transactions and writebacks outstanding, every hook
// installed — and then Reset must be indistinguishable from a machine
// just built: at rest, and step for step over a second program.
func TestResetEqualsFresh(t *testing.T) {
	configs := map[string]func(*Config){
		"unbounded": func(*Config) {},
		"bounded-snarf": func(c *Config) {
			c.CacheLines, c.CacheAssoc = 4, 2
			c.MLTEntries, c.MLTAssoc = 2, 1
			c.Snarf = true
		},
		"round-robin": func(c *Config) { c.Arbitration = bus.RoundRobin },
	}
	for name, mutate := range configs {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			// What the stops caught in flight, over the whole sweep: the
			// differential only means something where there was state to
			// clear.
			var pending, writebacks, busyBuses, purges int
			for seed := uint64(1); seed <= 3; seed++ {
				for stop := 10; stop <= 640; stop += 10 {
					k, used := testSystem(t, 3, mutate)
					used.Observer = func(SnoopEvent) {}
					used.Fault = func(Dim, topology.Coord, *Op) bool { return false }
					used.SuppressSignal = func(topology.Coord, *Op) bool { return false }
					used.DisableStaleReplyPoisoning = true
					used.Node(at(0, 0)).OnInvalidate = func(cache.Line) {}
					used.RegisterInclusion("test", at(0, 0), func() []cache.Line { return nil })
					logOps(used)
					launchRandomWorkload(t, k, used, seed, 25, 12)
					for i := 0; i < stop && k.Step(); i++ {
					}
					if k.Pending() == 0 {
						t.Fatalf("seed %d: the first program drained within %d steps", seed, stop)
					}
					for i := 0; i < 3; i++ {
						for _, nd := range used.nodes[i] {
							if nd.pend != nil {
								pending++
							}
							if nd.wbCont != nil {
								writebacks++
							}
							purges += nd.purgedAt.Len()
						}
						if used.rows[i].Busy() || used.cols[i].Busy() {
							busyBuses++
						}
					}
					used.Reset()

					_, fresh := testSystem(t, 3, mutate)
					if got, want := publicState(used), publicState(fresh); got != want {
						t.Fatalf("seed %d stop %d: reset machine differs from a new one:\n%s\nnew:\n%s", seed, stop, got, want)
					}
					if got, want := used.Fingerprint(nil, nil), fresh.Fingerprint(nil, nil); got != want {
						t.Fatalf("seed %d stop %d: fingerprint after Reset %#x, of a new machine %#x", seed, stop, got, want)
					}
					checkQuiet(t, used)
					if stop%160 != 0 {
						continue // the second program is the expensive half
					}

					usedLog, freshLog := logOps(used), logOps(fresh)
					launchRandomWorkload(t, used.Kernel(), used, seed+100, 25, 12)
					launchRandomWorkload(t, fresh.Kernel(), fresh, seed+100, 25, 12)
					for step := 0; ; step++ {
						more, freshMore := used.Kernel().Step(), fresh.Kernel().Step()
						if more != freshMore {
							t.Fatalf("seed %d stop %d: one machine drained at step %d, the other did not", seed, stop, step)
						}
						if !more {
							break
						}
						if got, want := used.Fingerprint(nil, nil), fresh.Fingerprint(nil, nil); got != want {
							t.Fatalf("seed %d stop %d: fingerprints part at step %d of the second program", seed, stop, step)
						}
					}
					if !reflect.DeepEqual(*usedLog, *freshLog) {
						t.Fatalf("seed %d stop %d: second program's bus operations differ (%d on the reset machine, %d on the new one)",
							seed, stop, len(*usedLog), len(*freshLog))
					}
					if len(*usedLog) == 0 {
						t.Fatal("second program issued no bus operations")
					}
					used.OpLog, fresh.OpLog = nil, nil
					if got, want := publicState(used), publicState(fresh); got != want {
						t.Fatalf("seed %d stop %d: after the second program:\n%s\nnew:\n%s", seed, stop, got, want)
					}
					checkQuiet(t, used)
				}
			}
			if pending == 0 || busyBuses == 0 {
				t.Fatalf("no stop caught a transaction (%d) or a bus operation (%d) in flight", pending, busyBuses)
			}
			if name == "bounded-snarf" && (writebacks == 0 || purges == 0) {
				t.Fatalf("no stop caught a victim writeback (%d) or a purge record (%d) to clear", writebacks, purges)
			}
		})
	}
}

// TestResetRefusesParallelMachine: a parallel machine's kernels belong
// to its Runner, so Reset must refuse rather than rewind them.
func TestResetRefusesParallelMachine(t *testing.T) {
	k := sim.NewKernel()
	parts := []*sim.Kernel{sim.NewKernel(), sim.NewKernel()}
	runner := sim.NewRunner(k, parts, 50*sim.Nanosecond, 1)
	s, err := NewSystem(k, Config{N: 2, ColKernels: parts, Par: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a parallel-mode machine did not panic")
		}
	}()
	s.Reset()
}
