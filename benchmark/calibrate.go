package main

import "time"

// The calibration kernel: a fixed, self-contained piece of work that is
// run before and after every timed pass. Host time on the shared sandbox
// drifts by tens of percent between back-to-back runs of one binary (see
// README.md, "Why host time is calibrated"); dividing a pass by the
// kernel readings taken around it cancels most of that drift, provided
// the kernel suffers from the host's interference the way the engines do.
// It therefore does what they do — binary-heap churn (the event queue),
// map insert, lookup and delete (caches, visited tables), and a steady
// stream of small allocations linked into a live, pointer-rich working
// set of a few megabytes that the garbage collector has to trace — and,
// like them, spends part of its time on arithmetic that interference
// does not touch. README.md records the two kernels that were tried and
// rejected for swinging further than the workloads do.
//
// The kernel imports nothing from internal/, so no change to the
// simulator can move it. Changing the kernel, calSteps or calNominalMS
// starts a new baseline: numbers taken before and after are not
// comparable.
const (
	// calSteps sizes one reading to about 76 ms on the reference host.
	calSteps = 160_000
	// calALURounds is the register-only arithmetic per step, about a
	// third of a step's time: the share of the engines' time that the
	// host's memory-side interference leaves alone (measured elasticity
	// of pass time to a memory-only kernel: 0.5 to 0.8).
	calALURounds = 80
	// calRing is the number of live nodes (64 bytes each) the kernel
	// keeps reachable: 4 MiB, beyond the L2 cache and below every
	// workload's own footprint, so the kernel does not set the process's
	// peak memory.
	calRing = 1 << 16
	// calNominalMS is the reading on the reference host, measured once
	// (median of 200 readings, 2026-10-01) and frozen. A pass's nominal
	// seconds are raw seconds × calNominalMS ÷ the mean of the two
	// adjacent readings.
	calNominalMS = 76.0
	// calChecksum pins the kernel's result, so a reading can only come
	// from exactly this work.
	calChecksum uint64 = 2117835712296050647
)

type calNode struct {
	next *calNode
	v    [7]uint64
}

type calItem struct {
	key  uint64
	node *calNode
}

// calKernel runs steps steps of the fixed work and returns its checksum.
func calKernel(steps int) uint64 {
	var (
		x    uint64 = 0x9e3779b97f4a7c15
		sum  uint64
		heap = make([]calItem, 0, 256)
		ring = make([]*calNode, calRing)
		m    = make(map[uint64]*calNode, 1<<14)
	)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(it calItem) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].key <= heap[i].key {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() calItem {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r, s := 2*i+1, 2*i+2, i
			if l < last && heap[l].key < heap[s].key {
				s = l
			}
			if r < last && heap[r].key < heap[s].key {
				s = r
			}
			if s == i {
				break
			}
			heap[s], heap[i] = heap[i], heap[s]
			i = s
		}
		return top
	}
	for i := 0; i < 128; i++ {
		push(calItem{key: next()})
	}
	for i := 0; i < steps; i++ {
		r := next()
		// Heap churn at a steady depth of 128.
		it := pop()
		sum += it.key
		// One small allocation per step, linked to a neighbour and
		// replacing a random member of the live ring.
		n := &calNode{v: [7]uint64{r}}
		j := r % calRing
		if n.next = ring[(j+1)%calRing]; n.next != nil {
			n.next.next = nil // chains stay one link long, so the ring bounds what is live
			sum += n.next.v[0]
		}
		ring[j] = n
		push(calItem{key: it.key + r%1024, node: n})
		// Map insert, lookup and delete over a 16 384-key working set.
		m[r%(1<<14)] = n
		if o := m[(r>>20)%(1<<14)]; o != nil {
			sum += o.v[0]
		}
		if r&7 == 0 {
			delete(m, (r>>40)%(1<<14))
		}
		// Arithmetic on registers only.
		y := r | 1
		for a := 0; a < calALURounds; a++ {
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
		}
		sum += y
	}
	return sum + uint64(len(m))
}

// calibrate takes one reading of steps steps: the kernel's wall time in
// milliseconds, and whether its checksum matched (checked for full-size
// readings only; the package's tests take shorter ones).
func calibrate(steps int) (ms float64, ok bool) {
	start := time.Now()
	sum := calKernel(steps)
	return float64(time.Since(start).Nanoseconds()) / 1e6, steps != calSteps || sum == calChecksum
}
