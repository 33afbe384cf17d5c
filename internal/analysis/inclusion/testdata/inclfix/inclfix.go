// Package inclfix exercises the inclusion pass: a two-level hierarchy
// whose snooping cache sits under a registered upper view, with
// discharged, undischarged and helper-discharged evictions.
//
//multicube:inclusion
package inclfix

import "multicube/internal/cache"

// Hier mirrors the coherence Node shape: a snooping cache and the
// machine layer's upper-level purge hook.
type Hier struct {
	l2           *cache.Cache
	OnInvalidate func(line cache.Line)
}

// purgeUpper drops the line from the registered upper-level views.
//
//multicube:inclusion-purge
func (h *Hier) purgeUpper(line cache.Line) {
	if h.OnInvalidate != nil {
		h.OnInvalidate(line)
	}
}

// notify stamps bookkeeping and purges; calls to it discharge through
// the call graph without their own annotation.
func (h *Hier) notify(line cache.Line) {
	h.purgeUpper(line)
}

// evictBad invalidates without ever purging the upper level.
func evictBad(h *Hier, line cache.Line) {
	h.l2.Invalidate(line) // want `snooping-cache eviction via Invalidate does not reach an upper-level purge`
}

// dropBad drops without purging.
func dropBad(h *Hier, line cache.Line) {
	h.l2.Drop(line) // want `snooping-cache eviction via Drop does not reach an upper-level purge`
}

// insertBad may displace a victim and never purges.
func insertBad(h *Hier, line cache.Line) {
	h.l2.Insert(line, cache.State(1), nil) // want `snooping-cache eviction via Insert does not reach an upper-level purge`
}

// evictGood purges directly after the eviction.
func evictGood(h *Hier, line cache.Line) {
	h.l2.Invalidate(line)
	h.purgeUpper(line)
}

// evictViaHelper discharges through notify, which reaches the purge
// transitively.
func evictViaHelper(h *Hier, line cache.Line) {
	h.l2.Drop(line)
	h.notify(line)
}

// evictConditional shows the positional (not path-sensitive) check: the
// purge under an if after the eviction counts.
func evictConditional(h *Hier, line cache.Line, gone bool) {
	h.l2.Insert(line, cache.State(1), nil)
	if gone {
		h.notify(line)
	}
}

// evictBefore purges BEFORE the eviction, which does not discharge it —
// the upper level would be repopulated stale.
func evictBefore(h *Hier, line cache.Line) {
	h.purgeUpper(line)
	h.l2.Invalidate(line) // want `snooping-cache eviction via Invalidate does not reach an upper-level purge`
}
