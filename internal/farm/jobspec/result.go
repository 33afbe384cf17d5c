package jobspec

import (
	"fmt"

	"multicube/internal/mc"
)

// Result is the cacheable outcome of one job. Everything in it is a
// deterministic function of the canonical spec for sim, litmus, and
// swarm jobs, and for every mc verdict; an mc Result's exploration
// statistics can additionally differ when the search resumed from a
// checkpoint, so byte-identity across cache MISSES is only promised for
// the verdict fields, while cache hits always serve the stored bytes
// verbatim.
// Wall-clock timings live outside this type (in the server's response
// envelope), never inside the cached payload.
type Result struct {
	Schema      int    `json:"schema"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	// Verdict summarizes: "ok", "violation", "undecided", "canceled",
	// or "error".
	Verdict string `json:"verdict"`

	Sim    *SimResult    `json:"sim,omitempty"`
	MC     *MCResult     `json:"mc,omitempty"`
	Litmus *LitmusResult `json:"litmus,omitempty"`
	Swarm  *SwarmResult  `json:"swarm,omitempty"`

	// Error carries the failure of an "error" verdict (the job itself
	// was valid but execution failed).
	Error string `json:"error,omitempty"`
}

// SimResult reports a timed run: the workload report, the paper's
// derived metrics, and any invariant violations found at quiescence.
type SimResult struct {
	References      uint64   `json:"references"`
	BusTransactions uint64   `json:"bus_transactions"`
	ElapsedSimNS    int64    `json:"elapsed_sim_ns"`
	Efficiency      float64  `json:"efficiency"`
	BusRatePerMS    float64  `json:"bus_rate_per_ms"`
	Invariants      []string `json:"invariants,omitempty"`
}

// MCResult embeds the explorer's result (states, coverage, verdict,
// minimized counterexample).
type MCResult struct {
	mc.Result
}

// LitmusResult reports a timed-machine litmus sweep.
type LitmusResult struct {
	Runs     int             `json:"runs"`
	Failures []LitmusFailure `json:"failures,omitempty"`
}

// LitmusFailure is one non-OK SC check in a litmus sweep.
type LitmusFailure struct {
	Test      string `json:"test"`
	Placement string `json:"placement"`
	Seed      uint64 `json:"seed"`
	Verdict   string `json:"verdict"`
	Reason    string `json:"reason"`
}

// SwarmResult reports a swarm batch: totals plus every violation, each
// replayable from its seed alone.
type SwarmResult struct {
	Cases       int              `json:"cases"`
	StatesTotal int              `json:"states_total"`
	Violations  []SwarmViolation `json:"violations,omitempty"`
}

// SwarmViolation is one swarm catch; (Seed, SingleBus) fully identifies
// the scenario (mc.SwarmScenario is a pure function of them), which is
// what the corpus persists.
type SwarmViolation struct {
	Seed      int64  `json:"seed"`
	SingleBus bool   `json:"single_bus"`
	Kind      string `json:"kind"`
	Msg       string `json:"msg"`
	Choices   []int  `json:"choices,omitempty"`
	States    int    `json:"states"`
}

// Encode renders the result in the same canonical byte-stable form as
// specs, which is what the cache stores and every response serves.
func (r *Result) Encode() ([]byte, error) {
	if r.Schema == 0 {
		r.Schema = SchemaVersion
	}
	return CanonicalJSON(r)
}

// Validate rejects malformed results read back from disk.
func (r *Result) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("jobspec: result schema %d (want %d)", r.Schema, SchemaVersion)
	}
	switch r.Kind {
	case KindSim, KindMC, KindLitmus, KindSwarm:
	default:
		return fmt.Errorf("jobspec: result kind %q unknown", r.Kind)
	}
	if r.Fingerprint == "" {
		return fmt.Errorf("jobspec: result without fingerprint")
	}
	if r.Verdict == "" {
		return fmt.Errorf("jobspec: result without verdict")
	}
	return nil
}
