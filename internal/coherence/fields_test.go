package coherence

import (
	"reflect"
	"sort"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
)

// fieldClasses sorts the fields of one struct of the rewindable machine
// into the five things a field can be to a rewind:
//
//   - rewound: state. Save copies it (or calls the Save of what it points
//     to) and Load writes it back.
//   - hook: installed by the harness. Save and Load leave it alone.
//   - wiring: fixed when the machine is built — configuration, pointers
//     between components, event bodies built once. For a kernel it also
//     covers what Save refuses to run with (processes, a held heap slot).
//   - scratch: nothing a rewind has to bring back — a buffer reused
//     within a step, a memo a rewind invalidates or one keyed on the
//     labels that a rewind leaves valid, an index of rewound state that
//     Load keeps up as it copies, a host-work or
//     per-execution counter a rewind restarts, the free list of
//     operations (Save stops adding to it).
//   - bookkeeping: what the rewind itself runs on — the machine's half of
//     the labels that let Save and Load skip a component, the clock
//     their epochs are drawn from, and the mark that a Save was taken.
//     Never saved and never rewound — an epoch that came back would name
//     two contents — and NewSystem draws every component its first one.
//
// TestEveryFieldIsClassified holds the lists to the structs, and
// TestLoadEqualsReplay holds every rewound field to a replay by name
// (internal/mc's fields_test.go does the same for its driver).
type fieldClasses struct {
	of                                          reflect.Type
	rewound, hook, wiring, scratch, bookkeeping []string
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

var rewindFields = []fieldClasses{
	{
		of:      typeOf[sim.Kernel](),
		rewound: []string{"now", "seq", "events", "lanes"},
		hook:    []string{"chooser"},
		wiring:  []string{"procs", "held"},
		scratch: []string{"fixed", "executed", "dispatching", "ordered", "cands"},
	},
	{
		of:      typeOf[bus.Bus](),
		rewound: []string{"queue", "busy", "last", "grantPending", "inflight", "gen", "stats"},
		hook:    []string{"chooser"},
		wiring:  []string{"k", "name", "arb", "agents", "attached", "deliverFn", "grantFn"},
		scratch: []string{"headScratch", "candScratch", "seenScratch"},
	},
	{
		of:      typeOf[cache.Cache](),
		rewound: []string{"sets", "table", "clock", "stats"},
		wiring:  []string{"cfg"},
		scratch: []string{"refScratch", "spare"},
	},
	{
		of:      typeOf[mlt.Table](),
		rewound: []string{"cols", "members", "gen"},
		wiring:  []string{"cfg"},
	},
	{
		of:      typeOf[memory.Store](),
		rewound: []string{"data", "invalid", "reads", "writes", "invalidates", "reissues"},
		wiring:  []string{"blockWords"},
		scratch: []string{"spare"},
	},
	{
		of:      typeOf[Node](),
		rewound: []string{"l2", "pend", "wbCont", "wbTrace", "purgedAt", "gen", "stats"},
		hook:    []string{"OnInvalidate"},
		wiring:  []string{"sys", "id", "rowIdx", "colIdx", "enqueueFn"},
		// pendBuf is what pend points to: its state is pend's, and what it
		// keeps once pend is nil is the last transaction's, which nothing
		// reads.
		scratch: []string{"pendBuf"},
	},
	{
		of:      typeOf[Memory](),
		rewound: []string{"store", "gen"},
		wiring:  []string{"sys", "col", "busIdx", "enqueueFn"},
	},
	{
		of:      typeOf[System](),
		rewound: []string{"k", "rows", "cols", "nodes", "mems", "mlt", "acct", "dropped"},
		hook: []string{"OpLog", "Fault", "SuppressSignal", "DisableStaleReplyPoisoning", "Observer",
			"inclusions", "onSkip"},
		wiring: []string{"grid", "cfg"},
		// sharers, owners and readers are the holder index: a function of
		// the nodes' caches and requests, which Node.load takes out of it
		// and puts back for every node a Load copies, so Save need not.
		scratch:     []string{"obsSink", "delivered", "free", "fpIdent", "fpInv", "fpCInv", "sharers", "owners", "readers"},
		bookkeeping: []string{"labels", "clock", "saved"},
	},
	{
		// The explorer's fingerprint cache: a memo keyed on the rewind's
		// labels, which no Save or Load touches (a hash is good wherever
		// its label comes back); evs and evH are buffers, and lines and
		// read a memo that BeginPoint empties.
		of:      typeOf[FPCache](),
		wiring:  []string{"sys", "n", "snarf"},
		scratch: []string{"lab", "nodeH", "memH", "rowQ", "colQ", "evs", "evH", "lines", "read", "recomputes", "reused"},
	},
}

// unmoved are the rewound fields the sweep of TestLoadEqualsReplay cannot
// move, with the reason.
var unmoved = map[string]string{
	"coherence.System.dropped": "only a Fault hook drops an operation, and the sweep installs none",
}

// TestEveryFieldIsClassified fails when a struct of the rewindable
// machine gains a field nobody has decided the class of (or loses one a
// list still names): a field forgotten by Save or Load is a silent wrong
// verdict, so adding one means opening the two and then one of the lists
// above.
func TestEveryFieldIsClassified(t *testing.T) {
	for _, fc := range rewindFields {
		checkClassified(t, fc.of, map[string][]string{
			"rewound": fc.rewound, "hook": fc.hook, "wiring": fc.wiring, "scratch": fc.scratch,
			"bookkeeping": fc.bookkeeping,
		})
	}
}

// checkClassified requires every field of struct type of in exactly one
// of the lists, and every name in a list to be a field of it.
func checkClassified(t *testing.T, of reflect.Type, lists map[string][]string) {
	t.Helper()
	class := make(map[string]string)
	for name, list := range lists {
		for _, f := range list {
			if prev, dup := class[f]; dup {
				t.Errorf("%v.%s is listed as %s and as %s", of, f, prev, name)
			}
			class[f] = name
		}
	}
	for i := 0; i < of.NumField(); i++ {
		f := of.Field(i).Name
		if _, ok := class[f]; !ok {
			t.Errorf("%v.%s is in no list: decide whether Save and Load must handle it (rewound) or why they need not", of, f)
		}
		delete(class, f)
	}
	var stale []string
	for f := range class {
		stale = append(stale, f)
	}
	sort.Strings(stale)
	for _, f := range stale {
		t.Errorf("%v has no field %s; drop it from the %s list", of, f, class[f])
	}
}

// rewoundFields holds two machines to each other field by field: every
// field rewindFields calls rewound, of every component the system leads
// to, compared across the machines (semDiff's across mode).
type rewoundFields map[reflect.Type][]string

func newRewoundFields() rewoundFields {
	r := rewoundFields{}
	for _, fc := range rewindFields {
		r[fc.of] = fc.rewound
	}
	return r
}

// compare walks a and b, two addressable values of one listed struct, and
// the components their rewound fields lead to, calling fn once per field
// of each component with its name ("coherence.Node.pend") and where the
// two differ ("" where they do not). It returns the first difference.
func (r rewoundFields) compare(a, b reflect.Value, fn func(name, diff string)) (first string) {
	for _, f := range r[a.Type()] {
		name := a.Type().String() + "." + f
		fa, fb := field(a, f), field(b, f)
		d := ""
		if !r.components(fa, fb, func(x, y reflect.Value) {
			if sub := r.compare(x, y, fn); d == "" {
				d = sub
			}
		}) && semDiff("", fa, fb, true) != "" {
			d = semDiff(name, fa, fb, true)
		}
		fn(name, d)
		if first == "" {
			first = d
		}
	}
	return first
}

// components calls fn on each pair of listed structs a and b lead to
// through pointers and slices, and reports whether they lead to any.
func (r rewoundFields) components(a, b reflect.Value, fn func(x, y reflect.Value)) bool {
	switch {
	case a.Kind() == reflect.Pointer && r[a.Type().Elem()] != nil:
		fn(a.Elem(), b.Elem())
		return true
	case a.Kind() == reflect.Slice && a.Len() == b.Len():
		any := false
		for i := 0; i < a.Len(); i++ {
			any = r.components(a.Index(i), b.Index(i), fn) || any
		}
		return any
	}
	return false
}
