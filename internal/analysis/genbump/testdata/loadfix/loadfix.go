// Package loadfix exercises genbump's substrate-mutator table on the
// rewind seam: loading a saved cache, modified line table or memory
// replaces fingerprint-visible state wholesale, so the struct that owns
// the store must restore (or bump) its generation counter in the same
// function.
package loadfix

import (
	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/mlt"
)

// node owns the three substrate stores behind one generation counter.
type node struct {
	l2    *cache.Cache
	table *mlt.Table
	store *memory.Store

	//multicube:gencounter
	gen uint64
}

type saved struct {
	l2    cache.Saved
	table mlt.Saved
	store memory.Saved
	gen   uint64
}

// load restores the generation with the state it counts.
func (n *node) load(st *saved) {
	n.l2.Load(&st.l2)
	n.table.Load(&st.table)
	n.store.Load(&st.store)
	n.gen = st.gen
}

// loadForgetful rewinds the stores under a generation that still counts
// the abandoned future.
func (n *node) loadForgetful(st *saved) {
	n.l2.Load(&st.l2)       // want `state via \(\*multicube/internal/cache\.Cache\)\.Load on node\.l2 without a generation bump`
	n.table.Load(&st.table) // want `state via \(\*multicube/internal/mlt\.Table\)\.Load on node\.table without a generation bump`
	n.store.Load(&st.store) // want `state via \(\*multicube/internal/memory\.Store\)\.Load on node\.store without a generation bump`
}

// save reads only.
func (n *node) save(st *saved) {
	n.l2.Save(&st.l2)
	n.table.Save(&st.table)
	n.store.Save(&st.store)
	st.gen = n.gen
}

func use(n *node, st *saved) {
	n.save(st)
	n.load(st)
	n.loadForgetful(st)
}
