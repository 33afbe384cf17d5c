package protocol

import (
	"strings"
	"testing"

	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// witnessOf finds, for one rule, a realizable (state, env) over its
// group's care mask that enables it — the same enumeration Check uses
// to prove satisfiability, replayed here so every spec row gets an
// explicit Match case.
func witnessOf(t *Table, r *Rule) (cache.State, Env, bool) {
	var mask Env
	for _, g := range t.Group(r.Event) {
		mask |= g.Guard.Care
	}
	atoms := maskBits(mask)
	for _, st := range allStates {
		if !r.States.Has(st) {
			continue
		}
		for idx := 0; idx < 1<<len(atoms); idx++ {
			env := envOf(atoms, idx)
			if consistent(r.Event, st, env, mask) && r.Guard.Matches(env) {
				return st, env, true
			}
		}
	}
	return 0, 0, false
}

// TestMulticubeStatic is the table's own gate: the Appendix A rule set
// must pass the well-formedness checker.
func TestMulticubeStatic(t *testing.T) {
	table := Multicube()
	if errs := table.Check(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	t.Logf("%d rules over %d events", len(table.Rules()), len(table.Events()))
}

// TestMulticubeRowWitnesses runs one Match case per spec row: for every
// rule a realizable witness (state, env) exists, and Match on that
// witness selects exactly that rule — first-match order never shadows a
// row.
func TestMulticubeRowWitnesses(t *testing.T) {
	table := Multicube()
	for _, r := range table.Rules() {
		st, env, ok := witnessOf(table, r)
		if !ok {
			t.Errorf("rule %s: no realizable witness", r.Name)
			continue
		}
		got, ok := table.Match(r.Event, st, env)
		if !ok {
			t.Errorf("rule %s: witness (%v, %v) matches nothing", r.Name, coherence.StateName(st), env)
			continue
		}
		if got != r {
			t.Errorf("rule %s: witness (%v, %v) selects %s instead", r.Name, coherence.StateName(st), env, got.Name)
		}
	}
}

// TestMulticubeDocumented: every row cites the protocol clause it
// encodes, and every Unreachable annotation carries a reason.
func TestMulticubeDocumented(t *testing.T) {
	for _, r := range Multicube().Rules() {
		if strings.TrimSpace(r.Doc) == "" {
			t.Errorf("rule %s has no doc", r.Name)
		}
	}
}

// TestMulticubeDeterministic: two independent constructions agree row
// for row — names, events, state sets, guards, actions, and next-state
// prescriptions in identical declaration order — so the table is a pure
// function of the source, not of map iteration or shared state.
func TestMulticubeDeterministic(t *testing.T) {
	a, b := Multicube(), Multicube()
	ra, rb := a.Rules(), b.Rules()
	if len(ra) != len(rb) {
		t.Fatalf("rule counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.Name != y.Name || x.Event != y.Event || x.States != y.States ||
			x.Guard != y.Guard || x.Next != y.Next || x.MLT != y.MLT ||
			x.SideTraffic != y.SideTraffic || x.Unreachable != y.Unreachable ||
			len(x.Actions) != len(y.Actions) {
			t.Fatalf("row %d differs between constructions: %v vs %v", i, x, y)
		}
		for j := range x.Actions {
			if x.Actions[j] != y.Actions[j] {
				t.Fatalf("row %d action %d differs: %v vs %v", i, j, x.Actions[j], y.Actions[j])
			}
		}
	}
	evs1, evs2 := a.Events(), a.Events()
	for i := range evs1 {
		if evs1[i] != evs2[i] {
			t.Fatalf("Events() order unstable at %d: %v vs %v", i, evs1[i], evs2[i])
		}
	}
}

// TestMatchFirstDeclared: when two rules overlap, Match returns the one
// declared first. (Multicube has no overlaps — Check forbids them — so
// the contract is pinned on a synthetic table.)
func TestMatchFirstDeclared(t *testing.T) {
	e := Event{Dim: coherence.Row, Txn: coherence.READ, Flags: coherence.REQUEST}
	first := &Rule{Name: "first", Event: e, States: AnyState, Guard: G(Y(AtomHome))}
	second := &Rule{Name: "second", Event: e, States: AnyState}
	tb := New([]*Rule{first, second})
	env := Env(0).With(AtomHome, true)
	if r, ok := tb.Match(e, coherence.Invalid, env); !ok || r != first {
		t.Fatalf("overlapping match returned %v, want first", r)
	}
	if r, ok := tb.Match(e, coherence.Invalid, 0); !ok || r != second {
		t.Fatalf("fallback match returned %v, want second", r)
	}
	if _, ok := tb.Match(Event{Dim: coherence.Col, Txn: coherence.READ, Flags: coherence.REQUEST}, coherence.Invalid, 0); ok {
		t.Fatal("match on an unknown event group succeeded")
	}
}

// Check must reject malformed tables: seeded defects of each class are
// reported, naming the offending rows.
func TestCheckRejectsDefects(t *testing.T) {
	e := Event{Dim: coherence.Col, Txn: coherence.READMOD, Flags: coherence.REQUEST | coherence.REMOVE}
	cases := []struct {
		name  string
		rules []*Rule
		want  string
	}{
		{
			name: "duplicate-name",
			rules: []*Rule{
				{Name: "dup", Event: e, States: AnyState, Guard: G(Y(AtomOrigin))},
				{Name: "dup", Event: e, States: AnyState, Guard: G(N(AtomOrigin))},
			},
			want: "duplicate rule name",
		},
		{
			name: "overlap",
			rules: []*Rule{
				{Name: "a", Event: e, States: AnyState},
				{Name: "b", Event: e, States: AnyState, Guard: G(Y(AtomHome))},
			},
			want: "enables 2 rules",
		},
		{
			name: "hole",
			rules: []*Rule{
				{Name: "only-home", Event: e, States: AnyState, Guard: G(Y(AtomHome))},
			},
			want: "enables no rule",
		},
		{
			name: "unsatisfiable",
			rules: []*Rule{
				{Name: "wild", Event: e, States: AnyState},
				// An originator off its own row is not a realizable
				// environment, so this rule can never be enabled.
				{Name: "origin-elsewhere", Event: e, States: AnyState,
					Guard: G(Y(AtomOrigin), N(AtomSameRow))},
			},
			want: "unsatisfiable",
		},
		{
			name: "unnamed",
			rules: []*Rule{
				{Event: e, States: AnyState},
			},
			want: "no name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := New(tc.rules).Check()
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					return
				}
			}
			t.Fatalf("no error mentioning %q; got %v", tc.want, errs)
		})
	}
}

// TestGuardMatches pins the bitmask semantics literals compile to.
func TestGuardMatches(t *testing.T) {
	g := G(Y(AtomOrigin), N(AtomSuppressed))
	env := Env(0).With(AtomOrigin, true).With(AtomHome, true)
	if !g.Matches(env) {
		t.Fatal("guard should ignore atoms outside its care set")
	}
	if g.Matches(env.With(AtomSuppressed, true)) {
		t.Fatal("negative literal not enforced")
	}
	if g.Matches(env.With(AtomOrigin, false)) {
		t.Fatal("positive literal not enforced")
	}
	if !(Guard{}).Matches(env) {
		t.Fatal("empty guard must match everything")
	}
}

// TestAddressingCoversEveryRule: every rule of the Appendix A table that
// acts — schedules an operation, changes the line's state or table
// membership, or issues side traffic — is enabled only at a controller
// the delivery addresses, so the controllers the machine leaves out of a
// bus operation are ones the protocol has nothing for.
func TestAddressingCoversEveryRule(t *testing.T) {
	table := Multicube()
	for _, err := range table.CheckAddressing() {
		t.Error(err)
	}
	acting := 0
	for _, r := range table.Rules() {
		if r.acts() {
			acting++
		}
	}
	t.Logf("%d of %d rules act; each is guarded within the addressed set", acting, len(table.Rules()))
}

// TestAddressingRejectsDefects: the check fails a rule that acts outside
// the addressed set — the home-column forward of a row UPDATE left to
// every node, a READ reply's forward off the originator's row, a purge
// invalidating a copy at the home column or a modified one — and passes
// the same rules when they do nothing.
func TestAddressingRejectsDefects(t *testing.T) {
	purge := Event{Dim: coherence.Row, Txn: coherence.READMOD, Flags: coherence.PURGE}
	upd := Event{Dim: coherence.Row, Txn: coherence.READ, Flags: coherence.UPDATE}
	rpl := Event{Dim: coherence.Col, Txn: coherence.READ, Flags: coherence.REPLY | coherence.NOPURGE}
	fwd := ActionSpec{Dim: coherence.Col, Txn: coherence.READ, Flags: coherence.UPDATE | coherence.MEMORY}
	for _, r := range []*Rule{
		{Name: "forward-anywhere", Event: upd, States: AnyState, Actions: []ActionSpec{fwd}},
		{Name: "forward-off-row", Event: rpl, States: AnyState, Guard: G(N(AtomSameRow)),
			Actions: []ActionSpec{{Dim: coherence.Row, Txn: coherence.READ, Flags: coherence.REPLY}}},
		{Name: "install-off-row", Event: rpl, States: AnyState, Guard: G(N(AtomSameRow)),
			Next: Next{Kind: NextTo, State: coherence.Shared}},
		{Name: "purge-at-home", Event: purge, States: S(shd), Guard: G(Y(AtomHome)), Next: Next{Kind: NextTo, State: inv}},
		{Name: "purge-modified", Event: purge, States: S(mod), Guard: G(N(AtomHome)), Next: Next{Kind: NextTo, State: inv}},
	} {
		errs := New([]*Rule{r}).CheckAddressing()
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), r.Name) {
			t.Errorf("rule %s: CheckAddressing = %v, want one error naming it", r.Name, errs)
		}
		quiet := *r
		quiet.Actions, quiet.Next = nil, Next{}
		if errs := New([]*Rule{&quiet}).CheckAddressing(); len(errs) != 0 {
			t.Errorf("rule %s without effect: CheckAddressing = %v, want none", r.Name, errs)
		}
	}
}

// TestDeliveryReadersAgree: the machine's reading of the delivery table
// (positions along a bus) and Addressed (a predicate over states and
// position atoms) name the same nodes. It covers every event of the table
// on a 3×3 and a 4×4 grid, at every originator, bus, home column, claimant
// and modified-wire setting, every set of nodes asserting will-serve, and
// for a purge, which has no probe phase, every set of nodes holding the
// line Shared and every set with a READ of it outstanding, with no
// widening condition and with each of the three the table reads
// (a fired SuppressSignal hook, snarfing, an insert that overflowed),
// under which the machine must deliver to the whole bus. An operation the table
// addresses to its originator travels on the originator's bus, so only
// that bus is asked about it.
func TestDeliveryReadersAgree(t *testing.T) {
	for _, n := range []int{3, 4} {
		for _, widen := range []Atom{numAtoms, AtomSuppressed, AtomSnarfable, AtomOverflow} { // numAtoms: none
			sys, err := coherence.NewSystem(sim.NewKernel(), coherence.Config{N: n, Snarf: widen == AtomSnarfable})
			if err != nil {
				t.Fatal(err)
			}
			if widen == AtomSuppressed {
				sys.SuppressSignal = func(topology.Coord, *coherence.Op) bool { return true }
			}
			for _, ev := range Multicube().Events() {
				c := coherence.ClassOf(ev.Dim, ev.Txn, ev.Flags)
				widened := widen == AtomSuppressed && c.Suppressible() || widen == AtomSnarfable && c.Snarfable() ||
					widen == AtomOverflow && c.Overflowable()
				purge := c.Addressee() == coherence.ToPurged
				toOrigin := c.Addressee() == coherence.ToOrigin || c.Addressee() == coherence.ToOriginAndHome ||
					purge && ev.Flags.Has(coherence.REPLY)
				serverSets, holderSets, claimants := uint64(1), uint64(1), n // only the empty sets, unless the event reads them
				if c.Addressee() == coherence.ToForwarderAndServers {
					serverSets = 1 << n
				}
				if purge {
					holderSets, claimants = 1<<n, 0
				}
				// node is the i-th node along bus b of the event's dimension.
				node := func(b, i int) topology.Coord {
					if ev.Dim == coherence.Row {
						return topology.Coord{Row: b, Col: i}
					}
					return topology.Coord{Row: i, Col: b}
				}
				busOf := func(p topology.Coord) int {
					if ev.Dim == coherence.Row {
						return p.Row
					}
					return p.Col
				}
				for o := 0; o < n*n; o++ {
					origin := topology.Coord{Row: o / n, Col: o % n}
					for b := 0; b < n; b++ {
						if toOrigin && b != busOf(origin) {
							continue
						}
						for home := 0; home < n; home++ {
							op := coherence.Op{Txn: ev.Txn, Flags: ev.Flags, Origin: origin, Line: cache.Line(home)}
							for k := -1; k < claimants; k++ { // the claimant's position; -1: the wire stayed low
								var claimant *topology.Coord
								if k >= 0 {
									cl := node(b, k)
									claimant = &cl
								}
								for servers := uint64(0); servers < serverSets; servers++ {
									for holders := uint64(0); holders < holderSets*holderSets; holders++ {
										sharers, readers := holders%holderSets, holders/holderSets
										to := sys.Addressed(ev.Dim, op, claimant, servers, sharers, readers, widen == AtomOverflow)
										if widened && to != 1<<n-1 {
											t.Errorf("%d×%d %v under %v: machine delivers to %b, want the whole bus", n, n, ev, widen, to)
										}
										for i := 0; i < n; i++ {
											p := node(b, i)
											env := Env(0).With(AtomOrigin, p == origin).With(AtomSameRow, p.Row == origin.Row).
												With(AtomSameCol, p.Col == origin.Col).With(AtomHome, p.Col == home).
												With(AtomModifiedWire, k >= 0).With(AtomClaimantSelf, k == i).
												With(AtomServes, servers&(1<<i) != 0).With(AtomPendRead, readers&(1<<i) != 0)
											if widen != numAtoms {
												env = env.With(widen, true)
											}
											st := coherence.Invalid
											if sharers&(1<<i) != 0 {
												st = coherence.Shared
											}
											if got, want := to&(1<<i) != 0, Addressed(ev, st, env); got != want {
												t.Errorf("%d×%d %v origin %v home %d claimant %d servers %b sharers %b readers %b, node %v: machine %v, Addressed %v",
													n, n, ev, origin, home, k, servers, sharers, readers, p, got, want)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
