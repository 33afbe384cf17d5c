package trace

import (
	"fmt"
	"sort"

	"multicube/internal/core"
	"multicube/internal/sim"
)

// Replay runs the trace on machine m: each processor executes its
// subsequence in order, with think time between references, and the
// machine drains. Processor ids in the trace must be < m.Processors().
func Replay(m *core.Machine, t *Trace, think sim.Time) error {
	procs := m.Processors()
	for _, r := range t.Records {
		if r.Proc < 0 || r.Proc >= procs {
			return fmt.Errorf("trace: record references processor %d of %d", r.Proc, procs)
		}
	}
	per := t.PerProc()
	ids := make([]int, 0, len(per))
	for proc := range per {
		ids = append(ids, proc)
	}
	sort.Ints(ids)
	for _, proc := range ids {
		recs := per[proc]
		m.Spawn(proc, func(c *core.Ctx) {
			for _, r := range recs {
				if think > 0 {
					c.Sleep(think)
				}
				if r.Kind == Write {
					c.Store(core.Addr(r.Addr), r.Addr) // value: the address, for checkability
				} else {
					c.Load(core.Addr(r.Addr))
				}
			}
		})
	}
	m.Run()
	return nil
}
