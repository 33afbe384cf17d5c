// Package storefix exercises the genbump analyzer's rules for a
// map-typed field: a sharded table whose hot map is fingerprint-visible
// and guarded by a per-shard generation counter. Every write, delete
// and clear of the map must bump the counter, or reach a helper whose
// callers do.
package storefix

// shard is one range of a sharded table: a hot map over on-disk runs.
type shard struct {
	gen   uint64              //multicube:gencounter
	hot   map[uint64][]uint64 //multicube:fpfield guard=shard
	bytes int64               // accounting only: not fingerprint-visible
}

func (sh *shard) visitNew(fp uint64, sleep []uint64) {
	sh.gen++
	sh.hot[fp] = sleep
	sh.bytes += int64(8 * len(sleep))
}

func (sh *shard) intersect(fp uint64, inter []uint64) {
	sh.hot[fp] = inter // want `write to fingerprint-visible field shard\.hot without a generation bump`
}

func (sh *shard) forget(fp uint64) {
	delete(sh.hot, fp) // want `field shard\.hot`
}

func (sh *shard) wipe() {
	clear(sh.hot) // want `field shard\.hot`
}

func (sh *shard) accounting(n int64) {
	sh.bytes += n // unregistered field: no bump required
}

// retire swaps in a fresh hot map after a spill; callers own the bump.
//
//multicube:fpexempt spill callers bump when retiring the hot tier
func (sh *shard) retire() {
	sh.hot = make(map[uint64][]uint64)
}

// Spill is the disciplined entry: bump, then retire.
func (sh *shard) Spill() {
	sh.gen++
	sh.retire()
}

// Checkpoint reaches the exempted retire without bumping.
func (sh *shard) Checkpoint() { // want `exported Checkpoint reaches fingerprint-visible writes \(guarded by shard\)`
	sh.retire()
}

func use(sh *shard) {
	sh.visitNew(1, nil)
	sh.intersect(1, nil)
	sh.forget(1)
	sh.wipe()
	sh.accounting(8)
}
