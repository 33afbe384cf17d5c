package coherence

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/mlt"
)

// Save and Load leave a component alone where the machine's label for it
// equals the buffer's, on the strength of one invariant: a label never
// names two contents. These tests make the invariant a rule. checkSkips
// installs the machine's onSkip hook, and every component a Save or Load
// skips is then held to the buffer's copy of it — semantically: caches,
// tables, memories and queues entry by entry whatever the layout of the
// arrays behind them, nil and empty slices alike, closures, traces and
// bus operations by identity.

// skipChecker compares skipped components with the buffer's copy. The
// copy of a cache, table or memory is loaded into a twin of the machine's
// own, so that both sides are the same type in the same representation; a
// bus is saved into a new buffer beside the one under test.
type skipChecker struct {
	t     testing.TB
	s     *System
	skips int // by Save and by Load
	loads int // of them, by Load

	l2    *cache.Cache
	table *mlt.Table
	store *memory.Store
}

// checkSkips makes every skip of a Save or Load on s a checked one and
// returns the checker, which counts them.
func checkSkips(t testing.TB, s *System) *skipChecker {
	c := &skipChecker{t: t, s: s,
		l2:    cache.MustNew(s.nodes[0][0].l2.Config()),
		table: mlt.MustNew(mlt.Config{Entries: s.cfg.MLTEntries, Assoc: s.cfg.MLTAssoc}),
		store: memory.MustNewStore(s.cfg.BlockWords)}
	s.onSkip = c.check
	return c
}

func (c *skipChecker) check(st *Saved, i int, load bool) {
	c.skips++
	if load {
		c.loads++
	}
	n := c.s.cfg.N
	var what, diff string
	switch {
	case i < 2*n:
		b, saved := c.s.rows[i%n], &st.rows[i%n]
		if i >= n {
			b, saved = c.s.cols[i-n], &st.cols[i-n]
		}
		what = b.Name()
		var live bus.Saved
		b.Save(&live)
		diff = locate(what, addressable(&live), addressable(saved))
	case i < 3*n:
		m, saved := c.s.mems[i-2*n], &st.mems[i-2*n]
		what = fmt.Sprintf("mem%d", m.col)
		c.store.Load(&saved.store)
		if diff = locate(what, addressable(m.store), addressable(c.store)); diff == "" && m.gen != saved.gen {
			diff = what + ".gen"
		}
	default:
		j := i - 3*n
		nd, saved := c.s.nodes[j/n][j%n], &st.nodes[j]
		what = fmt.Sprintf("node%v", nd.id)
		c.l2.Load(&saved.l2)
		c.table.Load(&saved.table)
		live := nodeSaved{hasPend: nd.pend != nil, wbCont: nd.wbCont, wbTrace: nd.wbTrace, gen: nd.gen, stats: nd.stats}
		if nd.pend != nil {
			live.pend = *nd.pend
		}
		rest := *saved // what is left of the node once its cache, table and purge history are set aside
		rest.l2, rest.table, rest.purged = live.l2, live.table, live.purged
		for _, d := range []string{
			locate(what+".l2", addressable(nd.l2), addressable(c.l2)),
			locate(what+".table", addressable(nd.table), addressable(c.table)),
			locate(what+".purgedAt", addressable(&nd.purgedAt), addressable(&saved.purged)),
			locate(what, addressable(&live), addressable(&rest)),
		} {
			if diff == "" {
				diff = d
			}
		}
	}
	if diff != "" {
		c.t.Fatalf("%s was skipped under label %+v, but the machine and the buffer differ at %s", what, st.labels[i], diff)
	}
}

func addressable(ptr any) reflect.Value { return reflect.ValueOf(ptr).Elem() }

// locate is semDiff at its cheapest: the path is built only once a
// difference is known to be there.
func locate(path string, a, b reflect.Value) string {
	if semDiff("", a, b, false) == "" {
		return ""
	}
	return semDiff(path, a, b, false)
}

// rewindScratch are the fields of the twinned types that are not state
// (fields_test.go classifies them): configuration, which a twin shares,
// and scratch; and a bus operation's fingerprint memos, which one machine
// may have taken where another has not, and its payload block, which an
// operation recycled from a data-carrying one keeps while it carries none
// (its Data is the state).
var rewindScratch = map[string]bool{"cfg": true, "blockWords": true, "refScratch": true, "spare": true,
	"fpIdentOK": true, "fpBaseOK": true, "fpIdent": true, "fpBase": true, "buf": true}

// fieldsOf caches, per struct type, the fields semDiff walks — those not
// in rewindScratch — with their names, and fieldNamed a field's index:
// reflection by name is most of what a checked exploration would cost.
var (
	fieldsOf   = map[reflect.Type][]reflect.StructField{}
	fieldNamed = map[reflect.Type]map[string]int{}
)

func stateFields(t reflect.Type) []reflect.StructField {
	fs, ok := fieldsOf[t]
	if !ok {
		fieldNamed[t] = map[string]int{}
		for i := 0; i < t.NumField(); i++ {
			fieldNamed[t][t.Field(i).Name] = i
			if !rewindScratch[t.Field(i).Name] {
				fs = append(fs, t.Field(i))
			}
		}
		fieldsOf[t] = fs
	}
	return fs
}

func field(v reflect.Value, name string) reflect.Value {
	stateFields(v.Type())
	return v.Field(fieldNamed[v.Type()][name])
}

// semDiff returns the path of the first place where a and b, two
// addressable values of one type, differ in a way a rewind could notice,
// or "" when they do not. With an empty path it says only "?" for a
// difference, and builds no strings: the caller asks again for the place.
// across compares two machines, where one machine's objects are the
// other's only in value: operations, traces and entries are followed,
// closures compared by their code and a bus by its name.
func semDiff(path string, a, b reflect.Value, across bool) string {
	differ := func(ne bool) string {
		switch {
		case !ne:
			return ""
		case path == "":
			return "?"
		}
		return path
	}
	at := func(format string, arg any) string {
		if path == "" {
			return ""
		}
		return path + fmt.Sprintf(format, arg)
	}
	switch a.Kind() {
	case reflect.Bool:
		return differ(a.Bool() != b.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return differ(a.Int() != b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return differ(a.Uint() != b.Uint())
	case reflect.Func:
		if across {
			return differ(a.Pointer() != b.Pointer())
		}
		// The same closure, not merely the same code: the first word of a
		// func value points at the closure.
		id := func(v reflect.Value) unsafe.Pointer { return *(*unsafe.Pointer)(v.Addr().UnsafePointer()) }
		return differ(id(a) != id(b))
	case reflect.Interface:
		// A bus packet or an event tag: the same operation, or none on both
		// sides.
		if a.IsNil() || b.IsNil() {
			return differ(a.IsNil() != b.IsNil())
		}
		if across {
			if a.Elem().Type() != b.Elem().Type() {
				return differ(true)
			}
			return semDiff(path, a.Elem(), b.Elem(), true)
		}
		return differ(a.Elem().Kind() != reflect.Pointer || b.Elem().Kind() != reflect.Pointer || a.Elem().Pointer() != b.Elem().Pointer())
	case reflect.Pointer:
		// The same object — a trace — unless it is a cache entry, which a
		// twin holds its own copy of.
		if a.Pointer() == b.Pointer() {
			return ""
		}
		switch elem := a.Type().Elem(); {
		case a.IsNil() || b.IsNil():
			return differ(true)
		case across && elem == reflect.TypeOf(bus.Bus{}):
			return differ(field(a.Elem(), "name").String() != field(b.Elem(), "name").String())
		case !across && elem != reflect.TypeOf(cache.Entry{}):
			return differ(true)
		}
		return semDiff(path, a.Elem(), b.Elem(), across)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return differ(true)
		}
		for i := 0; i < a.Len(); i++ {
			if d := semDiff(at("[%d]", i), a.Index(i), b.Index(i), across); d != "" {
				return d
			}
		}
		return ""
	case reflect.Struct:
		if strings.HasPrefix(a.Type().String(), "linetable.Table[") {
			return tableDiff(path, a, b, across)
		}
		for _, f := range stateFields(a.Type()) {
			if d := semDiff(at(".%s", f.Name), a.FieldByIndex(f.Index), b.FieldByIndex(f.Index), across); d != "" {
				return d
			}
		}
		return ""
	}
	return "a " + a.Kind().String() + " the comparison has no rule for"
}

// tableDiff compares two line tables key by key: which slot a key sits in
// depends on the order of the insertions and deletions that led there.
func tableDiff(path string, a, b reflect.Value, across bool) string {
	entries := func(t reflect.Value) map[uint64]reflect.Value {
		m := make(map[uint64]reflect.Value, field(t, "n").Int())
		slots := field(t, "slots")
		for i := 0; i < slots.Len(); i++ {
			if s := slots.Index(i); field(s, "full").Bool() {
				m[field(s, "key").Uint()] = field(s, "val")
			}
		}
		if len(m) != int(field(t, "n").Int()) {
			m[^uint64(0)] = reflect.Value{} // the table miscounts itself: equal to nothing
		}
		return m
	}
	ea, eb := entries(a), entries(b)
	if len(ea) != len(eb) {
		return path + ".len?"
	}
	for key, va := range ea {
		vb, ok := eb[key]
		if !ok || !va.IsValid() {
			return fmt.Sprintf("%s[%d]?", path, key)
		}
		sub := path
		if path != "" {
			sub = fmt.Sprintf("%s[%d]", path, key)
		}
		if d := semDiff(sub, va, vb, across); d != "" {
			return d
		}
	}
	return ""
}

// TestSemDiffSeesWhatARewindWould: the comparison the skip checks rest on
// tells apart what it must and nothing else.
func TestSemDiffSeesWhatARewindWould(t *testing.T) {
	_, s := testSystem(t, 2)
	a, b := s.nodes[0][0], s.nodes[1][1]
	same := func(what string) {
		t.Helper()
		if d := semDiff("l2", addressable(a.l2), addressable(b.l2), false); d != "" {
			t.Fatalf("%s: caches differ at %s", what, d)
		}
	}
	differs := func(what string) {
		t.Helper()
		if semDiff("l2", addressable(a.l2), addressable(b.l2), false) == "" {
			t.Fatalf("%s: caches compare equal", what)
		}
	}
	same("empty")
	// The same lines through different histories: another slot order.
	for _, l := range []cache.Line{1, 9, 17, 25, 33} {
		a.l2.Insert(l, Shared, []uint64{uint64(l)})
	}
	for _, l := range []cache.Line{33, 25, 40, 17, 9, 1} {
		b.l2.Insert(l, Shared, []uint64{uint64(l)})
	}
	b.l2.Drop(40)
	differs("replacement clocks apart")
	var st cache.Saved
	a.l2.Save(&st)
	b.l2.Load(&st)
	same("loaded")
	b.l2.Invalidate(9)
	differs("a retained tag against a resident line")
	a.l2.Invalidate(9)
	same("both invalidated")
	e, _ := a.l2.Lookup(17)
	e.Data[3] = 5
	differs("one data word")

	fa, fb := func() {}, func() {}
	x, y := nodeSaved{wbCont: fa}, nodeSaved{wbCont: fa}
	if d := semDiff("node", addressable(&x), addressable(&y), false); d != "" {
		t.Fatalf("one closure twice differs at %s", d)
	}
	y.wbCont = fb
	if d := semDiff("node", addressable(&x), addressable(&y), false); d != "node.wbCont" {
		t.Fatalf("two closures: %q", d)
	}
	y.wbCont, y.wbTrace, x.wbTrace = fa, &TxnTrace{}, &TxnTrace{}
	if d := semDiff("node", addressable(&x), addressable(&y), false); d != "node.wbTrace" {
		t.Fatalf("two traces of equal value: %q", d)
	}
}

// TestRewindLabelsNeverAlias is the hazard bare generations would fall
// to: from one boundary B the machine runs to X, is rewound, and runs
// another way to Y, where components stand at the generations they had at
// X with other contents. With X and Y both saved, loading one and then the
// other, in both orders, must give each time the state a replay from the
// initial state gives — and every component either load skipped must be
// what the buffer holds.
func TestRewindLabelsNeverAlias(t *testing.T) {
	var aliased, skips int
	for seed := uint64(1); seed <= 12; seed++ {
		rng := splitmix64(seed * 7919)
		procs := rwPrograms(&rng, 3)
		m := newRWMachine(t, 3, func(c *Config) { c.Snarf = true }, procs, seed)
		checker := checkSkips(t, m.sys)
		steps := 20 + rng.intn(60)
		for i := 0; i < steps; i++ {
			m.k.Step()
		}
		var b, bx, by rwBoundary
		m.save(&b, steps)

		// branch runs ahead from B under its own scheduling and saves where
		// it stops; it returns the picks that lead there and, per node,
		// generation and content hash.
		branch := func(sched uint64, into *rwBoundary) (picks []int, gens, hashes []uint64) {
			m.ch.rng = splitmix64(sched)
			for i := 0; i < 6; i++ {
				m.k.Step()
			}
			m.save(into, steps+6)
			f := NewFPCache(m.sys)
			f.BeginPoint(m.extraRC)
			for r, row := range m.sys.nodes {
				for c, nd := range row {
					gens, hashes = append(gens, nd.gen), append(hashes, f.nodeH[r][c])
				}
			}
			return append([]int(nil), m.ch.picks...), gens, hashes
		}
		picksX, gensX, hashX := branch(seed<<8|1, &bx)
		m.load(&b)
		picksY, gensY, hashY := branch(seed<<8|2, &by)
		for i := range gensX {
			if gensX[i] == gensY[i] && hashX[i] != hashY[i] {
				aliased++
			}
		}

		for i, visit := range []struct {
			b     *rwBoundary
			picks []int
		}{{&bx, picksX}, {&by, picksY}, {&bx, picksX}, {&b, picksX[:b.picks]}, {&by, picksY}} {
			m.load(visit.b)
			ref := newRWMachine(t, 3, func(c *Config) { c.Snarf = true }, procs, 0)
			ref.ch.script = visit.picks
			for j := 0; j < visit.b.steps; j++ {
				ref.k.Step()
			}
			where := fmt.Sprintf("seed %d, load %d", seed, i)
			sameState(t, where, m, ref)
			cont := splitmix64(seed<<16 | uint64(i))
			m.ch.rng, ref.ch.rng = cont, cont
			for j := 0; j < 40 && m.k.Step(); j++ {
				ref.k.Step()
				if got, want := m.sys.Fingerprint(nil, m.extra), ref.sys.Fingerprint(nil, ref.extra); got != want {
					t.Fatalf("%s: fingerprints part %d steps on", where, j)
				}
			}
		}
		skips += checker.skips
	}
	if aliased == 0 || skips == 0 {
		t.Fatalf("%d nodes stood at one generation with two contents, %d components were skipped: the test met no hazard", aliased, skips)
	}
	t.Logf("%d nodes at one generation with two contents; %d skips checked", aliased, skips)
}

// TestSkipsUnderRandomRewinds runs the programs of TestLoadEqualsReplay
// under the skip check, rewinding at random to one of a few boundaries
// kept in recycled buffers — the model checker's pattern — on unbounded
// and bounded caches and tables and under both arbitrations.
func TestSkipsUnderRandomRewinds(t *testing.T) {
	configs := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.CacheLines, c.CacheAssoc, c.MLTEntries, c.MLTAssoc, c.Snarf = 4, 2, 4, 2, true },
		func(c *Config) { c.Snarf, c.Arbitration = true, bus.RoundRobin },
	}
	for ci, mutate := range configs {
		var skips, loads int
		for seed := uint64(1); seed <= 4; seed++ {
			rng := splitmix64(seed * 31337)
			m := newRWMachine(t, 3, mutate, rwPrograms(&rng, 3), seed)
			checker := checkSkips(t, m.sys)
			saved := make([]rwBoundary, 4)
			var live []int // the buffers holding a boundary
			for steps := 0; m.k.Pending() > 0 && steps < 600; steps++ {
				switch rng.intn(6) {
				case 0:
					i := rng.intn(len(saved))
					m.save(&saved[i], steps)
					if !slices.Contains(live, i) {
						live = append(live, i)
					}
				case 1:
					if len(live) > 0 {
						m.load(&saved[live[rng.intn(len(live))]])
						loads++
					}
				}
				m.k.Step()
				m.incrementalFP(m.fpc)
			}
			skips += checker.skips
		}
		if loads == 0 || skips == 0 {
			t.Fatalf("config %d: %d loads, %d skips", ci, loads, skips)
		}
		t.Logf("config %d: %d loads, %d skips checked", ci, loads, skips)
	}
}

// TestMemoSurvivesLoad: the fingerprint cache keys on the rewind's
// labels, so a Load straight after a Save, which puts every component back
// under the label it stood under, leaves every cached hash good — the bus
// snapshots as well as the node and memory hashes. The machine has been
// rewound once before, so some of its labels are lent by a Load.
func TestMemoSurvivesLoad(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := splitmix64(seed * 104729)
		m := newRWMachine(t, 3, func(c *Config) { c.Snarf = true }, rwPrograms(&rng, 3), seed)
		var early, b rwBoundary
		for i := 0; i < 40 && m.k.Step(); i++ {
			if i == 10 {
				m.save(&early, i)
			}
			m.incrementalFP(m.fpc)
		}
		m.load(&early)
		m.ch.rng = splitmix64(seed << 8)
		for i := 0; i < 15 && m.k.Step(); i++ {
			m.incrementalFP(m.fpc)
		}
		want := m.incrementalFP(m.fpc)
		m.save(&b, 0)
		m.load(&b)
		m.fpc.ResetStats()
		if got := m.incrementalFP(m.fpc); got != want {
			t.Fatalf("seed %d: the fingerprint moved across a Save and Load: %#x, then %#x", seed, want, got)
		}
		if rec, reused := m.fpc.Stats(); rec != 0 || reused != uint64(len(m.sys.labels)) {
			t.Fatalf("seed %d: BeginPoint after a Load straight back recomputed %d of %d components", seed, rec, rec+reused)
		}
	}
}
