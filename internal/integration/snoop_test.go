package integration

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/mc"
	"multicube/internal/topology"
	"multicube/internal/workload"
)

// noOpCheck collects the snoop windows an Observer reports and fails on
// any at a node the operation does not address that did something: a
// scheduled bus operation, a changed line view, or a moved counter.
type noOpCheck struct {
	t                      *testing.T
	addressed, unaddressed int
	failures               int
}

func (c *noOpCheck) observe(ev coherence.SnoopEvent) {
	if ev.Addressed {
		c.addressed++
		return
	}
	c.unaddressed++
	if len(ev.Actions) == 0 && ev.After == ev.Before && ev.StatsAfter == ev.StatsBefore {
		return
	}
	if c.failures++; c.failures <= 5 {
		c.t.Errorf("node %v, not addressed by %v %v(%v) line %d origin %v, acted: actions %+v, line %+v -> %+v, stats %+v -> %+v",
			ev.Node, ev.Dim, ev.Txn, ev.Flags, ev.Line, ev.Origin, ev.Actions, ev.Before, ev.After, ev.StatsBefore, ev.StatsAfter)
	}
}

// TestUnaddressedSnoopsAreNoOps holds the delivery of each bus operation
// to the controllers it addresses (DESIGN.md §5 decision 11) to what it
// leaves out. An Observer makes the snoopers enter every node, as every
// controller of the hardware snoops; at every node the addressing
// leaves out, the handler must schedule nothing, change nothing about
// the line and count nothing. It runs on every TestDESGolden
// configuration — both mixes, bounded caches and tables, the processor
// cache, snarfing, every arbitration, the TAS and SYNC kernels — and on
// every small explorer preset, where each interleaving is reached.
func TestUnaddressedSnoopsAreNoOps(t *testing.T) {
	for _, c := range desGoldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, err := core.New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			chk := &noOpCheck{t: t}
			m.System().Observer = chk.observe
			c.run(t, m)
			for _, err := range m.CheckInvariants() {
				t.Errorf("invariant: %v", err)
			}
			if chk.unaddressed == 0 || chk.addressed == 0 {
				t.Fatalf("%d snoops addressed, %d not: the check saw nothing to judge", chk.addressed, chk.unaddressed)
			}
			t.Logf("%d snoops addressed, %d not", chk.addressed, chk.unaddressed)
		})
	}

	data, err := os.ReadFile("../mc/testdata/preset_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Preset string `json:"preset"`
		Spill  bool   `json:"spill"`
		States int    `json:"states"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	limit := 8000
	if testing.Short() {
		limit = 2500
	}
	for _, g := range golden {
		if g.Spill || g.States > limit {
			continue
		}
		sc, err := mc.Preset(g.Preset)
		if err != nil {
			t.Fatal(err)
		}
		if sc.SingleBus {
			continue
		}
		t.Run(g.Preset, func(t *testing.T) {
			chk := &noOpCheck{t: t}
			res, err := mc.Explore(sc, mc.Options{MaxStates: 5_000_000,
				Instrument: func(s *coherence.System) { s.Observer = chk.observe }})
			if err != nil {
				t.Fatal(err)
			}
			if res.States != g.States {
				t.Fatalf("%d states under the observer, golden %d", res.States, g.States)
			}
			if chk.unaddressed == 0 {
				t.Fatalf("%d snoops addressed, none not: the check saw nothing to judge", chk.addressed)
			}
		})
	}
}

// TestSnoopsPerBusOperation gates the addressed delivery on a count: on
// the des-shared mix of the repository benchmark at N = 8, a bus
// operation enters at most 4.0 controllers on average (eight if every
// node snooped every operation), and the probe phase walks a bus only
// for a row REQUEST or a column REQUEST|REMOVE, the two operations whose
// probes drive a wire.
func TestSnoopsPerBusOperation(t *testing.T) {
	m, err := core.New(core.Config{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	var issued, rowReqs, colReqRems uint64
	m.System().OpLog = func(dim coherence.Dim, _ topology.Coord, op *coherence.Op) {
		issued++
		switch {
		case dim == coherence.Row && op.Flags.Has(coherence.REQUEST):
			rowReqs++
		case dim == coherence.Col && op.Flags.Has(coherence.REQUEST|coherence.REMOVE):
			colReqRems++
		}
	}
	workload.Run(m, sharedMix(1000))
	sys := m.System()
	var ops uint64
	for i := 0; i < m.Config().N; i++ {
		ops += sys.RowBus(i).Stats().Ops + sys.ColBus(i).Stats().Ops
	}
	if ops != issued {
		t.Fatalf("%d bus operations delivered of %d issued: the run did not drain", ops, issued)
	}
	d := sys.Delivered()
	perOp := float64(d.NodeSnoops) / float64(ops)
	t.Logf("%d bus operations: %.2f node snoops each; probe walks on %d row and %d column operations",
		ops, perOp, d.RowProbes, d.ColProbes)
	if perOp > 4.0 {
		t.Errorf("%.2f node snoops per bus operation, want at most 4.0", perOp)
	}
	if d.RowProbes != rowReqs || d.ColProbes != colReqRems {
		t.Errorf("probe walks on %d row and %d column operations; %d row REQUESTs and %d column REQUEST|REMOVEs were delivered",
			d.RowProbes, d.ColProbes, rowReqs, colReqRems)
	}
}

// TestOpsAreRecycled gates the recycling of bus operations on a count: on
// the des-shared mix at N = 4, at least 95 % of the operations a run
// builds come off the free list. A machine saved before it runs recycles
// none (a saved boundary names operations a Load brings back), and
// simulates the same run to the bit as its unsaved twin.
func TestOpsAreRecycled(t *testing.T) {
	run := func(save bool) (coherence.DeliveryStats, core.Metrics, workload.Report) {
		m := core.MustNew(core.Config{N: 4})
		if save {
			m.System().Save(new(coherence.Saved))
		}
		rep := workload.Run(m, sharedMix(1500))
		return m.System().Delivered(), m.Metrics(), rep
	}
	d, metrics, rep := run(false)
	share := float64(d.OpsReused) / float64(d.OpsBuilt+d.OpsReused)
	t.Logf("%d bus operations built, %d reused: %.4f from the free list", d.OpsBuilt, d.OpsReused, share)
	if share < 0.95 {
		t.Errorf("%.4f of bus operations came from the free list, want at least 0.95", share)
	}
	ds, savedMetrics, savedRep := run(true)
	if ds.OpsReused != 0 {
		t.Errorf("a saved machine reused %d bus operations, want 0", ds.OpsReused)
	}
	if ds.OpsBuilt != d.OpsBuilt+d.OpsReused {
		t.Errorf("the saved machine built %d bus operations, its twin %d", ds.OpsBuilt, d.OpsBuilt+d.OpsReused)
	}
	if !reflect.DeepEqual(savedMetrics, metrics) || savedRep != rep {
		t.Errorf("the saved machine simulated another run:\n%s\n%+v\nits twin:\n%s\n%+v", savedMetrics, savedRep, metrics, rep)
	}
}
