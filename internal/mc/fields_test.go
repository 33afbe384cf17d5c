package mc

import (
	"reflect"
	"sort"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
)

// fieldClasses sorts the fields of one struct of the rewindable machine
// into the five things a field can be to a rewind:
//
//   - rewound: state. Save copies it (or calls the Save of what it points
//     to), Load writes it back and reset re-initialises it, all three.
//   - hook: installed by the harness. Load leaves it alone; Reset clears
//     it and the harness installs it again.
//   - wiring: fixed when the machine is built — configuration, pointers
//     between components, event bodies built once. For a kernel it also
//     covers what Save refuses to run with (processes, a parallel
//     runner's stamper).
//   - scratch: nothing a rewind has to bring back — a buffer reused
//     within a step, a memo a rewind invalidates, a host-work or
//     per-execution counter a rewind restarts.
//   - bookkeeping: what the rewind itself runs on — the machine's half of
//     the labels that let Save and Load skip a component, and the clock
//     their epochs are drawn from. Never saved and never rewound — an
//     epoch that came back would name two contents — and all Reset does
//     is draw every component a new one.
//
// The lists are a decision record, not a proof: TestLoadEqualsReplay and
// TestResetEqualsFresh (internal/coherence), TestReusedMachineMatchesRebuilt
// and TestPresetGolden decide whether a field really is what its list
// says.
type fieldClasses struct {
	of                                          reflect.Type
	rewound, hook, wiring, scratch, bookkeeping []string
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

var rewindFields = []fieldClasses{
	{
		of:      typeOf[sim.Kernel](),
		rewound: []string{"now", "seq", "events"},
		hook:    []string{"chooser", "allEvents"},
		wiring:  []string{"procs", "stamper"},
		scratch: []string{"executed", "dispatching", "ordered", "cands"},
	},
	{
		of:      typeOf[bus.Bus](),
		rewound: []string{"fifo", "perSrc", "queued", "busy", "last", "grantPending", "inflight", "gen", "stats"},
		hook:    []string{"chooser", "deferGrants"},
		wiring:  []string{"k", "name", "arb", "agents", "deliverFn", "grantFn"},
		scratch: []string{"slotScratch", "candScratch", "seenScratch"},
	},
	{
		of:      typeOf[cache.Cache](),
		rewound: []string{"sets", "table", "clock", "stats"},
		wiring:  []string{"cfg"},
		scratch: []string{"refScratch", "spare"},
	},
	{
		of:      typeOf[mlt.Table](),
		rewound: []string{"sets", "table", "clock", "inserts", "removes", "failures", "overflows"},
		wiring:  []string{"cfg"},
	},
	{
		of:      typeOf[memory.Store](),
		rewound: []string{"data", "invalid", "reads", "writes", "invalidates", "reissues"},
		wiring:  []string{"blockWords"},
		scratch: []string{"spare"},
	},
	{
		of:      typeOf[coherence.Node](),
		rewound: []string{"l2", "table", "pend", "pendBuf", "wbCont", "wbTrace", "purgedAt", "gen", "stats"},
		hook:    []string{"OnInvalidate"},
		wiring:  []string{"sys", "id", "k", "shard", "rowIdx", "colIdx", "enqueueFn"},
	},
	{
		of:      typeOf[coherence.Memory](),
		rewound: []string{"store", "gen"},
		wiring:  []string{"sys", "col", "busIdx", "k", "shard", "enqueueFn"},
	},
	{
		of:      typeOf[coherence.System](),
		rewound: []string{"k", "rows", "cols", "nodes", "mems", "shards", "dropped"},
		hook: []string{"OpLog", "Fault", "SuppressSignal", "DisableStaleReplyPoisoning", "Observer",
			"inclusions", "onSkip"},
		wiring:      []string{"grid", "cfg", "par"},
		scratch:     []string{"obsSink", "fpIdent", "fpInv", "fpCInv"},
		bookkeeping: []string{"labels", "clock"},
	},
	{
		of:      typeOf[driver](),
		rewound: []string{"pc", "completed", "wit", "failure"},
		wiring:  []string{"sc", "sh", "k", "issueFn", "label"},
		scratch: []string{"scChecks", "scUndecided"},
	},
	{
		of:      typeOf[instance](),
		rewound: []string{"driver", "sys", "held", "fpc"},
		scratch: []string{"drvH", "drvDirty", "fpn", "sigR", "sigC"},
	},
}

// TestEveryFieldIsClassified fails when a struct of the rewindable
// machine gains a field nobody has decided the class of (or loses one a
// list still names): a field forgotten by Save, Load or reset is a silent
// wrong verdict, so adding one means opening the three and then one of
// the lists above.
func TestEveryFieldIsClassified(t *testing.T) {
	for _, fc := range rewindFields {
		class := make(map[string]string)
		for name, list := range map[string][]string{
			"rewound": fc.rewound, "hook": fc.hook, "wiring": fc.wiring, "scratch": fc.scratch,
			"bookkeeping": fc.bookkeeping,
		} {
			for _, f := range list {
				if prev, dup := class[f]; dup {
					t.Errorf("%v.%s is listed as %s and as %s", fc.of, f, prev, name)
				}
				class[f] = name
			}
		}
		for i := 0; i < fc.of.NumField(); i++ {
			f := fc.of.Field(i).Name
			if _, ok := class[f]; !ok {
				t.Errorf("%v.%s is in no list: decide whether Save, Load and reset must handle it (rewound) or why they need not (hook, wiring, scratch, bookkeeping)", fc.of, f)
			}
			delete(class, f)
		}
		var stale []string
		for f := range class {
			stale = append(stale, f)
		}
		sort.Strings(stale)
		for _, f := range stale {
			t.Errorf("%v has no field %s; drop it from the %s list", fc.of, f, class[f])
		}
	}
}
