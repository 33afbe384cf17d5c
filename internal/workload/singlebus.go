package workload

import (
	"multicube/internal/sim"
	"multicube/internal/singlebus"
)

// RunSingleBus drives the single-bus baseline with the same synthetic
// workload as Run — each processor consumes the stream Run would hand it
// — for the multi-versus-Multicube comparison (the paper's framing:
// multis are "limited to some tens of processors").
func RunSingleBus(m *singlebus.Machine, cfg GenConfig) Report {
	cfg.fillDefaults()
	var rep Report
	procs := m.Processors()
	const blockWords = 16 // matches the baseline's default

	k := m.Kernel()
	for id := 0; id < procs; id++ {
		proc := m.Processor(id)
		refs := stream(cfg, id, procs, blockWords, false)
		var issued sim.Time
		var next func()
		finish := func(uint64) {
			rep.StallTime += k.Now() - issued
			rep.References++
			refs = refs[1:]
			next()
		}
		issue := func() {
			r := &refs[0]
			issued = k.Now()
			if r.write {
				proc.StoreAsync(singlebus.Addr(r.addr), r.value, finish)
			} else {
				proc.LoadAsync(singlebus.Addr(r.addr), finish)
			}
		}
		next = func() {
			if len(refs) == 0 {
				return
			}
			rep.ThinkTime += refs[0].think
			k.After(refs[0].think, issue)
		}
		next()
	}
	rep.Elapsed = m.Run()
	rep.BusTransactions, _ = m.TxnStats()
	return rep
}
