package mc

import (
	"sync"
)

// Distributed exploration splits one search across several workers by
// fingerprint-range ownership (statespace.Owner): each part visits —
// and records — only states in its own range, so each part's slice of
// the visited store could live on a different farm worker. When a run
// reaches a tracked state owned by a foreign part it stops and hands the
// continuation over: the choice prefix reproducing the state, the sleep
// set in force, and a skip count covering the tracked states the sender
// already processed since its last choice point (the receiver replays
// them without visiting, which is also what makes handoff chains
// terminate — each hop strictly extends the prefix or the skip).
//
// Like the worker-pool pass, a distributed pass's verdict is made
// deterministic by sequential re-derivation of any violation; its
// States/Runs statistics can vary with scheduling.

// passDistributed drains per-part work queues with one worker per part.
// Parts share the explorer's store (in-process the shard ranges live in
// one Store; the farm's value is the ownership discipline itself plus
// the handoff protocol, which its job plumbing carries across workers).
func (e *explorer) passDistributed(depth, parts int) passOut {
	var (
		mu          sync.Mutex
		queues      = make([][]workItem, parts)
		outstanding = 1
		stop        bool
		out         passOut
	)
	queues[0] = []workItem{{}}
	cond := sync.NewCond(&mu)
	var wg sync.WaitGroup
	drain := func(own int) {
		defer wg.Done()
		w := &worker{e: e}
		for {
			mu.Lock()
			for len(queues[own]) == 0 && outstanding > 0 && !stop {
				cond.Wait()
			}
			if stop || len(queues[own]) == 0 {
				mu.Unlock()
				return
			}
			if e.ctxDone() {
				out.canceled = true
				stop = true
				cond.Broadcast()
				mu.Unlock()
				return
			}
			q := queues[own]
			it := q[len(q)-1]
			queues[own] = q[:len(q)-1]
			mu.Unlock()

			r := w.run(it, depth, own)
			kids := e.children(it, r)
			w.retire(it, r)

			mu.Lock()
			out.runs++
			out.limitAny = out.limitAny || r.limitHit
			out.stepsAny = out.stepsAny || r.stepsHit
			if r.violation != nil {
				if out.violation == nil || shortlexLess(r.violation.Choices, out.violation.Choices) {
					out.violation = r.violation
				}
				stop = true
			}
			if r.budgetCut {
				stop = true
			}
			if !stop {
				queues[own] = append(queues[own], kids...)
				outstanding += len(kids)
				if r.handoff != nil {
					queues[r.handoffTo] = append(queues[r.handoffTo], *r.handoff)
					outstanding++
					out.handoffs++
				}
				e.report(out.runs, depth, frontierLen(queues))
			}
			outstanding--
			cond.Broadcast()
			mu.Unlock()
		}
	}
	wg.Add(parts)
	for p := 0; p < parts; p++ {
		// One worker per ownership range; results are merged into canonical
		// order and every counterexample is re-derived sequentially, so the
		// verdict is schedule-independent.
		//multicube:chooser-ok partition workers; results canonicalized and replays sequential
		go drain(p)
	}
	wg.Wait()
	return out
}

func frontierLen(queues [][]workItem) int {
	n := 0
	for _, q := range queues {
		n += len(q)
	}
	return n
}
