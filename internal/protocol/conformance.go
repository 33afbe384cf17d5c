package protocol

import (
	"fmt"
	"sort"
	"sync"

	"multicube/internal/coherence"
)

// Conformance replays observed controller transitions against a protocol
// table. Attach one to a coherence.System (or hand Observe to
// mc.Options.Instrument) and every snoop window is checked: the event
// must select exactly the rule the table predicts, the actions issued
// for the snooped line must equal the rule's action list, traffic for
// other lines must be licensed by SideTraffic, and the state and
// modified-line-table transitions must match the rule's Next and MLT
// clauses. Mismatches are collected (deduplicated by message), never
// panicked, so a single run reports every distinct divergence at once.
//
// The collector is safe for concurrent use, so machines running on
// several goroutines may share one.
type Conformance struct {
	table *Table

	mu         sync.Mutex
	events     uint64
	hits       map[string]uint64
	mismatches map[string]uint64
	order      []string
}

// NewConformance builds a collector over the given table.
func NewConformance(t *Table) *Conformance {
	return &Conformance{
		table:      t,
		hits:       make(map[string]uint64),
		mismatches: make(map[string]uint64),
	}
}

// Attach installs the collector on a system (grid machines only; the
// single-bus machine has its own snooper).
func (c *Conformance) Attach(sys *coherence.System) { sys.Observer = c.Observe }

// Observe checks one snoop window against the table. It is the
// coherence.System Observer callback.
func (c *Conformance) Observe(sev coherence.SnoopEvent) {
	evt := EventOf(&sev)
	st := sev.Before.State
	env := EnvOf(&sev)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++

	group := c.table.Group(evt)
	if len(group) == 0 {
		c.fail("event %v has no rules in the table (state %v, env %v)", evt, st, env)
		return
	}
	rule, ok := c.table.Match(evt, st, env)
	if !ok {
		c.fail("event %v: no rule matches state %v env %v", evt, st, env)
		return
	}
	c.hits[rule.Name]++
	if !sev.Addressed && Addressed(evt, env) {
		c.fail("rule %s: the table addresses node %v (env %v) but the machine does not deliver to it",
			rule.Name, sev.Node, env)
	}
	if rule.Unreachable != "" {
		c.fail("rule %s is annotated unreachable (%s) but was exercised (state %v, env %v)",
			rule.Name, rule.Unreachable, st, env)
	}

	// Partition the issued intents: actions for the snooped line are the
	// rule's specified response; actions for other lines (victim
	// writebacks, re-inserts, reissued pending requests) need the rule's
	// SideTraffic license.
	var same []coherence.ActionIntent
	for _, in := range sev.Actions {
		if in.Line == sev.Line {
			same = append(same, in)
		} else if !rule.SideTraffic {
			c.fail("rule %s: unlicensed side traffic for line %d: %v %v %v",
				rule.Name, in.Line, in.Dim, in.Txn, in.Flags&^coherence.ALLOC)
		}
	}
	if !actionsMatch(rule.Actions, same) {
		c.fail("rule %s: actions %s, spec %s (state %v, env %v)",
			rule.Name, fmtIntents(same), fmtSpecs(rule.Actions), st, env)
	}

	switch rule.Next.Kind {
	case NextSame:
		if sev.After.State != sev.Before.State {
			c.fail("rule %s: state changed %v -> %v, spec keeps it",
				rule.Name, sev.Before.State, sev.After.State)
		}
	case NextTo:
		if sev.After.State != rule.Next.State {
			c.fail("rule %s: next state %v, spec %v (before %v)",
				rule.Name, sev.After.State, rule.Next.State, sev.Before.State)
		}
	}

	switch rule.MLT {
	case MLTSame:
		if sev.After.MLTHas != sev.Before.MLTHas {
			c.fail("rule %s: modified line table entry %v -> %v, spec keeps it",
				rule.Name, sev.Before.MLTHas, sev.After.MLTHas)
		}
	case MLTAbsent:
		if sev.After.MLTHas {
			c.fail("rule %s: modified line table entry present after, spec removes it", rule.Name)
		}
	case MLTPresent:
		if !sev.After.MLTHas {
			c.fail("rule %s: modified line table entry absent after, spec inserts it", rule.Name)
		}
	}
}

func (c *Conformance) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if c.mismatches[msg] == 0 {
		c.order = append(c.order, msg)
	}
	c.mismatches[msg]++
}

// actionsMatch compares the issued same-line intents against the spec as
// multisets, ignoring the internal ALLOC bookkeeping flag.
func actionsMatch(spec []ActionSpec, got []coherence.ActionIntent) bool {
	if len(spec) != len(got) {
		return false
	}
	used := make([]bool, len(got))
	for _, s := range spec {
		found := false
		for i, g := range got {
			if used[i] {
				continue
			}
			if g.Dim == s.Dim && g.Txn == s.Txn && g.Flags&^coherence.ALLOC == s.Flags {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func fmtIntents(ins []coherence.ActionIntent) string {
	if len(ins) == 0 {
		return "[]"
	}
	s := "["
	for i, in := range ins {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%v %v %v", in.Dim, in.Txn, in.Flags&^coherence.ALLOC)
	}
	return s + "]"
}

func fmtSpecs(specs []ActionSpec) string {
	if len(specs) == 0 {
		return "[]"
	}
	s := "["
	for i, sp := range specs {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%v %v %v", sp.Dim, sp.Txn, sp.Flags)
	}
	return s + "]"
}

// Events returns the number of snoop windows observed.
func (c *Conformance) Events() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Mismatches returns the distinct divergence messages in first-seen
// order, each with its occurrence count.
func (c *Conformance) Mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, msg := range c.order {
		out = append(out, fmt.Sprintf("%s (x%d)", msg, c.mismatches[msg]))
	}
	return out
}

// Hits returns the per-rule exercise counts (rules never hit are absent).
func (c *Conformance) Hits() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.hits))
	for k, v := range c.hits {
		out[k] = v
	}
	return out
}

// Coverage summarizes per-rule exercise status against the table.
type Coverage struct {
	Covered   []string // reachable rules that were exercised
	Uncovered []string // reachable rules never exercised — a gate failure
	Annotated []string // rules annotated unreachable (and, correctly, never exercised)
}

// Coverage computes the coverage summary. An annotated rule that was
// exercised counts as covered here; Observe already recorded the
// mismatch.
func (c *Conformance) Coverage() Coverage {
	hits := c.Hits()
	var cov Coverage
	for _, r := range c.table.Rules() {
		switch {
		case hits[r.Name] > 0:
			cov.Covered = append(cov.Covered, r.Name)
		case r.Unreachable != "":
			cov.Annotated = append(cov.Annotated, r.Name)
		default:
			cov.Uncovered = append(cov.Uncovered, r.Name)
		}
	}
	sort.Strings(cov.Covered)
	sort.Strings(cov.Uncovered)
	sort.Strings(cov.Annotated)
	return cov
}
