package mc

import (
	"fmt"

	"multicube/internal/coherence"
	"multicube/internal/topology"
	"multicube/internal/trace"
)

// ReplayResult is one scripted re-execution of a counterexample.
type ReplayResult struct {
	// Violation is the failure the replay reproduced, or nil.
	Violation *Violation
	// Quiescent reports the machine drained all events.
	Quiescent bool
	// Steps is the kernel step count.
	Steps int
	// Log is the annotated bus-operation trace of the execution.
	Log *trace.BusOpLog
}

// Replay re-executes a scenario under a choice sequence (typically a
// Violation's Choices) and returns the reproduced violation together
// with the annotated bus-operation trace. Choices beyond the sequence
// default to 0, exactly as during exploration, so a minimal
// counterexample replays to the same failure.
func Replay(sc Scenario, choices []int, opts Options) (*ReplayResult, error) {
	sc.FillDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	e := &explorer{sc: &sc, opts: opts, sh: newShared(&sc, &opts), n: sc.N}
	ck := newChecker(&sc, e.sh)
	log := &trace.BusOpLog{}
	k := ck.kernel()
	switch in := ck.(type) {
	case *instance:
		in.sys.OpLog = func(dim coherence.Dim, issuer topology.Coord, op *coherence.Op) {
			var busName string
			if dim == coherence.Row {
				busName = fmt.Sprintf("row%d", issuer.Row)
			} else {
				busName = fmt.Sprintf("col%d", issuer.Col)
			}
			name := fmt.Sprintf("(%d,%d)", issuer.Row, issuer.Col)
			if issuer.Row < 0 {
				name = fmt.Sprintf("mem%d", issuer.Col)
			}
			log.Append(int(k.Executed()), busName, name, op.String())
		}
	case *sbInstance:
		in.m.OpLog = func(origin int, op string) {
			log.Append(int(k.Executed()), "bus", fmt.Sprintf("proc%d", origin), op)
		}
	}
	r := e.execute(ck, replayChooser(ck, sc.N, choices, &opts), false, 0)
	return &ReplayResult{Violation: r.violation, Quiescent: k.Pending() == 0, Steps: int(e.cost.Steps), Log: log}, nil
}
