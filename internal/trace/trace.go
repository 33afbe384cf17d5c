// Package trace records and replays memory reference traces. The paper's
// evaluation lamented that "very little data has been published on the
// memory reference behavior of parallel programs"; the trace format lets
// any workload this repository generates be captured once and replayed
// against different machine configurations (block sizes, cache sizes,
// arbitration policies) for controlled comparisons.
//
// The on-disk form is line-oriented text, one "proc R|W addr" record per
// line, which is what multicube-sim reads and writes.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpKind distinguishes reads and writes.
type OpKind uint8

const (
	Read OpKind = iota
	Write
)

func (k OpKind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Record is one memory reference.
type Record struct {
	Proc int
	Kind OpKind
	Addr uint64
}

// Trace is an in-memory reference stream in global issue order.
type Trace struct {
	Records []Record
}

// Append adds a record.
func (t *Trace) Append(proc int, kind OpKind, addr uint64) {
	t.Records = append(t.Records, Record{Proc: proc, Kind: kind, Addr: addr})
}

// AppendRef adds a reference in the shape workload.References yields it.
func (t *Trace) AppendRef(proc int, write bool, addr uint64) {
	kind := Read
	if write {
		kind = Write
	}
	t.Append(proc, kind, addr)
}

// Len returns the record count.
func (t *Trace) Len() int { return len(t.Records) }

// PerProc splits the trace into per-processor subsequences, preserving
// order within each processor.
func (t *Trace) PerProc() map[int][]Record {
	out := make(map[int][]Record)
	for _, r := range t.Records {
		out[r.Proc] = append(out[r.Proc], r)
	}
	return out
}

// WriteText encodes the trace as one "proc kind addr" line per record.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "%d %s %d\n", r.Proc, r.Kind, r.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes the text form.
func ReadText(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 'proc kind addr', got %q", lineNo, line)
		}
		proc, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad proc: %v", lineNo, err)
		}
		var kind OpKind
		switch fields[1] {
		case "R", "r":
			kind = Read
		case "W", "w":
			kind = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, fields[1])
		}
		addr, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad addr: %v", lineNo, err)
		}
		t.Append(proc, kind, addr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
