// Package lockfix exercises the nolockstep analyzer: concurrency
// primitives inside and outside syncpoint functions of a file marked as
// parallel runtime.
//
//multicube:parallel-runtime fixture
package lockfix

import (
	"sync"
	"sync/atomic"
)

// Declarations of channel and sync types are fine anywhere; only
// operations communicate.
type pool struct {
	jobs chan int
	done chan struct{}
	mu   sync.Mutex
	n    atomic.Int64
}

// dispatch is not a syncpoint, so every primitive is flagged.
func dispatch(p *pool) {
	go drain(p)  // want `go statement outside a syncpoint function`
	p.jobs <- 1  // want `channel send outside a syncpoint function`
	<-p.done     // want `channel receive outside a syncpoint function`
	close(p.jobs) // want `channel close outside a syncpoint function`
	p.n.Add(1)   // want `sync/atomic call outside a syncpoint function`
	p.mu.Lock()  // want `sync call outside a syncpoint function`
	atomic.AddUint64(new(uint64), 1) // want `sync/atomic call outside a syncpoint function`
	select { // want `select statement outside a syncpoint function`
	default:
	}
}

// drain ranges over the job channel without being a syncpoint.
func drain(p *pool) {
	for range p.jobs { // want `range over a channel outside a syncpoint function`
	}
}

// barrier is the audited rendezvous: everything is allowed here,
// including primitives inside nested function literals.
//
//multicube:syncpoint fixture barrier
func barrier(p *pool) {
	go func() {
		p.jobs <- 2
		p.n.Add(1)
	}()
	<-p.done
	close(p.done)
}

// iter is a plain range over a slice — not a channel, not flagged.
func iter(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
