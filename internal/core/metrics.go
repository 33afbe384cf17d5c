package core

import (
	"fmt"
	"sort"
	"strings"

	"multicube/internal/coherence"
	"multicube/internal/sim"
)

// Metrics aggregates machine-wide activity for reporting.
type Metrics struct {
	Elapsed sim.Time

	// Bus activity.
	RowBusOps, ColBusOps     uint64
	RowBusyTime              sim.Time
	ColBusyTime              sim.Time
	MeanRowUtil, MeanColUtil float64
	MaxRowUtil, MaxColUtil   float64
	HotCol                   int // the column bus at MaxColUtil

	// Transactions by type.
	Txns map[coherence.Txn]coherence.TxnStats

	// Cache and reference activity summed over processors.
	Loads, Stores    uint64
	L1Hits           uint64
	L2Hits, L2Misses uint64
	Invalidations    uint64
	Reissues         uint64
	MemoryReads      uint64
	MemoryWrites     uint64
	MemoryReissues   uint64
}

// Metrics computes a snapshot over the elapsed simulated time.
func (m *Machine) Metrics() Metrics {
	elapsed := m.k.Now()
	out := Metrics{Elapsed: elapsed, Txns: m.sys.Stats()}
	n := m.cfg.N
	for i := 0; i < n; i++ {
		rs := m.sys.RowBus(i).Stats()
		cs := m.sys.ColBus(i).Stats()
		out.RowBusOps += rs.Ops
		out.ColBusOps += cs.Ops
		out.RowBusyTime += rs.BusyTime
		out.ColBusyTime += cs.BusyTime
		ru := m.sys.RowBus(i).Utilization(elapsed)
		cu := m.sys.ColBus(i).Utilization(elapsed)
		out.MeanRowUtil += ru / float64(n)
		out.MeanColUtil += cu / float64(n)
		if ru > out.MaxRowUtil {
			out.MaxRowUtil = ru
		}
		if cu > out.MaxColUtil {
			out.MaxColUtil, out.HotCol = cu, i
		}
		mem := m.sys.MemoryAt(i).Store().Stats()
		out.MemoryReads += mem.Reads
		out.MemoryWrites += mem.Writes
		out.MemoryReissues += mem.Reissues
	}
	for _, p := range m.procs {
		ps := p.Stats()
		out.Loads += ps.Loads
		out.Stores += ps.Stores
		out.L1Hits += ps.L1Hits
		cs := p.node.Cache().Stats()
		out.L2Hits += cs.Hits
		out.L2Misses += cs.Misses
		ns := p.node.Stats()
		out.Invalidations += ns.Invalidations
		out.Reissues += ns.Reissues
	}
	return out
}

// String renders the metrics as an aligned report.
func (mt Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed              %v\n", mt.Elapsed)
	fmt.Fprintf(&b, "references           %d loads, %d stores (L1 hits %d)\n", mt.Loads, mt.Stores, mt.L1Hits)
	fmt.Fprintf(&b, "snooping cache       %d hits, %d misses\n", mt.L2Hits, mt.L2Misses)
	fmt.Fprintf(&b, "bus operations       %d row, %d column\n", mt.RowBusOps, mt.ColBusOps)
	fmt.Fprintf(&b, "bus utilization      row mean %.3f max %.3f, column mean %.3f max %.3f\n",
		mt.MeanRowUtil, mt.MaxRowUtil, mt.MeanColUtil, mt.MaxColUtil)
	fmt.Fprintf(&b, "invalidations        %d\n", mt.Invalidations)
	fmt.Fprintf(&b, "race reissues        %d node, %d memory\n", mt.Reissues, mt.MemoryReissues)
	fmt.Fprintf(&b, "memory               %d reads, %d writes\n", mt.MemoryReads, mt.MemoryWrites)

	txns := make([]coherence.Txn, 0, len(mt.Txns))
	for t := range mt.Txns {
		txns = append(txns, t)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, t := range txns {
		st := mt.Txns[t]
		fmt.Fprintf(&b, "%-12v         %6d completed, mean latency %v, mean bus ops %.2f\n",
			t, st.Count, st.MeanLatency(), st.MeanOps())
	}
	return b.String()
}
