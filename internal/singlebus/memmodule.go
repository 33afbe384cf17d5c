package singlebus

import (
	"fmt"
	"sort"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/memory"
)

// memModule is main memory on the shared bus. It replies to reads unless
// a dirty cache asserted the inhibit line, and absorbs write-backs,
// write-throughs and cache-supplied data (which double as memory
// updates in write-once).
type memModule struct {
	m      *Machine
	store  *memory.Store
	busIdx int
}

// probe supplies the block from memory when no dirty cache inhibited.
// Memory is attached after every cache, so the inhibit line has settled
// by the time this runs.
func (mm *memModule) probe(o *op) {
	if (o.kind == opRead || o.kind == opReadInv) && !o.inhibit {
		o.data = mm.store.Read(memory.Line(o.line))
	}
}

func (mm *memModule) snoop(o *op) {
	if mm.m.OpLog != nil {
		mm.m.OpLog(o.origin, o.String())
	}
	switch o.kind {
	case opRead:
		if o.inhibit {
			// The dirty cache supplied the block; the same transaction
			// updates memory and the line falls back to Valid.
			mm.store.Write(memory.Line(o.line), o.data)
		}
	case opReadInv:
		// The block is going dirty at the requester; memory keeps its
		// (possibly stale) contents, as in any write-back protocol.
	case opWriteBack:
		if o.canceled {
			return // the line was re-read or re-claimed off the buffer
		}
		mm.store.Write(memory.Line(o.line), o.data)
	case opWriteWord:
		if !o.confirmed {
			return // void write-through; the originator retries
		}
		// Write-once write-through: memory absorbs the single word.
		buf := mm.store.Peek(memory.Line(o.line))
		buf[o.offset] = o.value
		mm.store.Write(memory.Line(o.line), buf)
	}
}

type memAgent struct{ mm *memModule }

func (a memAgent) Probe(b *bus.Bus, pkt bus.Packet) { a.mm.probe(pkt.(*op)) }
func (a memAgent) Snoop(b *bus.Bus, pkt bus.Packet) { a.mm.snoop(pkt.(*op)) }

// CheckInvariants verifies write-once global state at quiescence:
// at most one Reserved/Dirty copy per line, no Valid copies alongside a
// Dirty one, and Valid copies equal to memory.
func CheckInvariants(m *Machine) []error {
	var errs []error
	type holderInfo struct {
		id    int
		state cache.State
	}
	holders := make(map[cache.Line][]holderInfo)
	sharers := make(map[cache.Line][]int)
	for _, p := range m.procs {
		p.cache.ForEach(func(e *cache.Entry) {
			switch e.State {
			case Dirty, Reserved:
				holders[e.Line] = append(holders[e.Line], holderInfo{p.id, e.State})
			case Valid:
				sharers[e.Line] = append(sharers[e.Line], p.id)
			}
		})
	}
	// Iterate lines in sorted order so the error list — which tests and
	// counterexample reports compare textually — is identical run to run.
	holderLines := make([]cache.Line, 0, len(holders))
	for line := range holders {
		holderLines = append(holderLines, line)
	}
	sort.Slice(holderLines, func(i, j int) bool { return holderLines[i] < holderLines[j] })
	sharerLines := make([]cache.Line, 0, len(sharers))
	for line := range sharers {
		sharerLines = append(sharerLines, line)
	}
	sort.Slice(sharerLines, func(i, j int) bool { return sharerLines[i] < sharerLines[j] })
	for _, line := range holderLines {
		hs := holders[line]
		if len(hs) > 1 {
			errs = append(errs, errf("line %d exclusive in %d caches", line, len(hs)))
		}
		if len(sharers[line]) > 0 {
			errs = append(errs, errf("line %d exclusive at %d but shared at %v", line, hs[0].id, sharers[line]))
		}
	}
	for _, line := range sharerLines {
		ids := sharers[line]
		if _, dirty := holders[line]; dirty {
			continue
		}
		want := m.mem.store.Peek(memory.Line(line))
		for _, id := range ids {
			e, ok := m.procs[id].cache.Lookup(line)
			if !ok {
				continue
			}
			for i := range want {
				if e.Data[i] != want[i] {
					errs = append(errs, errf("line %d word %d: cache %d has %d, memory %d", line, i, id, e.Data[i], want[i]))
					break
				}
			}
		}
	}
	// Reserved lines must equal memory (written through exactly once).
	for _, line := range holderLines {
		hs := holders[line]
		for _, h := range hs {
			if h.state != Reserved {
				continue
			}
			want := m.mem.store.Peek(memory.Line(line))
			e, _ := m.procs[h.id].cache.Lookup(line)
			for i := range want {
				if e.Data[i] != want[i] {
					errs = append(errs, errf("reserved line %d word %d differs from memory", line, i))
					break
				}
			}
		}
	}
	return errs
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
