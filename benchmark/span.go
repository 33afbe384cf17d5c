package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into a
// layer. Spans are kept in memory and written out when the run ends. A
// nil *tracer records nothing, so the timed passes run the same code
// with tracing off.
type tracer struct {
	mu    sync.Mutex // the farm's two clients record concurrently
	t0    time.Time
	spans []span
}

// span is one timed interval. ID 0 is "no span", used as the parent of
// root spans. Start and End are nanoseconds since the tracer started.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanDump is the on-disk form: one row per span with names interned, at
// most maxRowsPerName rows of one name (the explorer's 17 630 runs would
// otherwise make every report half a megabyte); the totals cover every
// span, written out or not.
type spanDump struct {
	Columns []string  `json:"columns"`
	Names   []string  `json:"names"`
	Rows    [][]int64 `json:"rows"`
	// Omitted counts, per name, the spans left out of Rows.
	Omitted map[string]int `json:"omitted,omitempty"`
	// ByName totals each span name. Self time is the span's duration
	// minus the part of it its direct children cover.
	ByName map[string]spanTotal `json:"by_name"`
}

const maxRowsPerName = 2000

type spanTotal struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

func (t *tracer) dump() *spanDump {
	if t == nil {
		return nil
	}
	d := &spanDump{
		Columns: []string{"id", "parent", "name", "start_ns", "end_ns"},
		ByName:  map[string]spanTotal{},
	}
	nameIdx := map[string]int64{}
	covered := childCover(t.spans)
	for i, s := range t.spans {
		idx, ok := nameIdx[s.Name]
		if !ok {
			idx = int64(len(d.Names))
			nameIdx[s.Name] = idx
			d.Names = append(d.Names, s.Name)
		}
		tot := d.ByName[s.Name]
		if tot.Count < maxRowsPerName {
			d.Rows = append(d.Rows, []int64{int64(s.ID), int64(s.Parent), idx, s.Start, s.End})
		} else {
			if d.Omitted == nil {
				d.Omitted = map[string]int{}
			}
			d.Omitted[s.Name]++
		}
		tot.Count++
		tot.TotalNS += s.End - s.Start
		tot.SelfNS += s.End - s.Start - covered[i]
		d.ByName[s.Name] = tot
	}
	return d
}

// childCover returns, per span, the length of the union of its direct
// children's intervals clipped to the span (the farm's concurrent
// clients overlap under one parent, so durations cannot just be summed).
func childCover(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	out := make([]int64, len(spans))
	for i, ks := range kids {
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		edge := spans[i].Start
		for _, k := range ks {
			start, end := spans[k].Start, spans[k].End
			if end > spans[i].End {
				end = spans[i].End
			}
			if start < edge {
				start = edge
			}
			if end > start {
				out[i] += end - start
				edge = end
			}
		}
	}
	return out
}
