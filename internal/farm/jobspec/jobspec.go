// Package jobspec defines the farm's job specifications and their
// canonical encoding. A Spec names one unit of work — a timed
// simulation, a model-checking exploration, a litmus sweep, or a swarm
// batch — as plain JSON. Normalize resolves it to canonical form
// (schema version stamped, presets expanded, defaults filled),
// Canonical renders that form as byte-stable JSON
// (sorted keys, digit-exact numbers), and Fingerprint hashes those
// bytes.
//
// The fingerprint is the farm's cache key, so its stability IS the
// cache's correctness argument: two specs that would run the same
// deterministic computation must canonicalize to identical bytes, in
// any process, on any platform, forever — and two specs that could
// diverge must not. Everything result-affecting (scenario structure,
// engine bounds, seeds) is inside the canonical form; nothing
// result-neutral (checkpoint placement, progress cadence) has a field
// in it, so no spelling of it can reach the fingerprint. Encoding
// discipline: object keys are emitted sorted; numbers pass through
// json.Number so a 64-bit seed never takes a trip through float64;
// floats re-encode via Go's shortest-round-trip formatter, which is
// deterministic and parse-exact.
//
//multicube:deterministic
package jobspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"multicube/internal/mc"
	"multicube/internal/memmodel"
)

// SchemaVersion is stamped into every canonical spec and result. Bump it
// whenever the canonical encoding or job semantics change incompatibly;
// old cache entries then simply stop matching instead of serving results
// computed under different rules.
//
// 2: mc.Scenario gained the Protocol field (single-bus snooper
// selection), changing the canonical mc-job encoding.
// 3: the explorer lost its sleep sets and the option that turned them
// off: mc and swarm results under the same canonical spec now carry
// other States, Runs and Cost values.
const SchemaVersion = 3

// Job kinds.
const (
	KindSim    = "sim"
	KindMC     = "mc"
	KindLitmus = "litmus"
	KindSwarm  = "swarm"
)

// Spec is one submitted job. Exactly one payload field matching Kind
// must be set.
type Spec struct {
	// Schema is the spec schema version; zero is normalized to
	// SchemaVersion, anything else must match it exactly.
	Schema int    `json:"schema,omitempty"`
	Kind   string `json:"kind"`

	Sim    *SimSpec    `json:"sim,omitempty"`
	MC     *MCSpec     `json:"mc,omitempty"`
	Litmus *LitmusSpec `json:"litmus,omitempty"`
	Swarm  *SwarmSpec  `json:"swarm,omitempty"`
}

// SimSpec runs the synthetic reference workload on a timed machine and
// reports the paper's efficiency/bus-rate metrics.
type SimSpec struct {
	// N is processors per bus (the machine is N×N); default 4.
	N int `json:"n,omitempty"`
	// BlockWords is the coherency block size; default 16 (the paper's).
	BlockWords int `json:"block_words,omitempty"`
	// CacheLines/CacheAssoc and MLTEntries/MLTAssoc bound the snooping
	// cache and modified line table; zero means unbounded.
	CacheLines int `json:"cache_lines,omitempty"`
	CacheAssoc int `json:"cache_assoc,omitempty"`
	MLTEntries int `json:"mlt_entries,omitempty"`
	MLTAssoc   int `json:"mlt_assoc,omitempty"`
	// Snarf enables the Section 3 snarf optimization.
	Snarf bool `json:"snarf,omitempty"`
	// Seed drives all workload randomness; identical seeds, identical runs.
	Seed uint64 `json:"seed,omitempty"`
	// ThinkNS is the mean think time in simulated nanoseconds; default 10000.
	ThinkNS int64 `json:"think_ns,omitempty"`
	// Exponential selects exponential think times; default true.
	Exponential *bool `json:"exponential,omitempty"`
	// SharedLines (default 64) and PrivateLines (default 16) size the
	// hot set and per-processor private region.
	SharedLines  int `json:"shared_lines,omitempty"`
	PrivateLines int `json:"private_lines,omitempty"`
	// PShared (default 0.5) and PWrite (default 0.3) steer the mix;
	// pointers, like Exponential, so that an explicit 0 stays 0.
	PShared *float64 `json:"p_shared,omitempty"`
	PWrite  *float64 `json:"p_write,omitempty"`
	// Requests is references per processor; default 100.
	Requests int `json:"requests,omitempty"`
}

// MCSpec model-checks one bounded scenario: either a named preset or an
// inline scenario (exactly one must be set on submission; Normalize
// expands presets so canonical specs always carry the scenario inline).
type MCSpec struct {
	Preset   string       `json:"preset,omitempty"`
	Scenario *mc.Scenario `json:"scenario,omitempty"`
	Options  MCOptions    `json:"options"`
}

// MCOptions mirrors the result-affecting subset of mc.Options. The
// checkpoint and store placement deliberately have no field: where the
// search spills or checkpoints never changes what it concludes, so
// those knobs are server-side execution policy in farm.Config, not job
// identity. A resume from such a checkpoint is the one thing that can
// change a miss's exploration statistics, and never its verdict.
type MCOptions struct {
	MaxStates      int  `json:"max_states,omitempty"`
	MaxDepth       int  `json:"max_depth,omitempty"`
	DepthStep      int  `json:"depth_step,omitempty"`
	MaxStepsPerRun int  `json:"max_steps_per_run,omitempty"`
	MaxReissues    int  `json:"max_reissues,omitempty"`
	DisablePOR     bool `json:"disable_por,omitempty"`
	NoMinimize     bool `json:"no_minimize,omitempty"`
	SCNodes        int  `json:"sc_nodes,omitempty"`
}

// LitmusSpec sweeps one litmus test (or the whole suite) over jitter
// seeds on the timed machine, SC-checking every captured history.
type LitmusSpec struct {
	// Test names a memmodel litmus test; "all" (the default) runs the suite.
	Test string `json:"test,omitempty"`
	// N is the machine's grid dimension; default 2.
	N int `json:"n,omitempty"`
	// Seeds is jitter seeds per configuration (default 4); Rounds is
	// instances per run (default 4); BaseSeed offsets the sweep.
	Seeds    int    `json:"seeds,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// MaxJitterNS bounds the random pre-operation delay; default 2000.
	MaxJitterNS int64 `json:"max_jitter_ns,omitempty"`
	// SCNodes caps each history's SC search (0 = memmodel default).
	SCNodes int `json:"sc_nodes,omitempty"`
}

// SwarmSpec explores a batch of seed-derived random scenarios
// (mc.SwarmScenario) and reports — and, on the server, persists to the
// corpus — every violation found.
type SwarmSpec struct {
	// BaseSeed is the first seed; Count (default 8) seeds are explored.
	BaseSeed int64 `json:"base_seed,omitempty"`
	Count    int   `json:"count,omitempty"`
	// Machines selects "both" (default), "multicube", or "singlebus".
	Machines string `json:"machines,omitempty"`
	// MaxStates is the per-seed exploration budget; default 4000.
	MaxStates int `json:"max_states,omitempty"`
}

// Sanity caps, protecting the farm from unbounded submissions. Generous
// relative to every preset and benchmark in the repo.
const (
	maxMCStates    = 5_000_000
	maxSimRequests = 1_000_000
	maxGridN       = 32
	maxSwarmCount  = 1024
	maxLitmusSeeds = 1024
)

// Normalize validates s and returns its canonical form: schema stamped,
// presets expanded inline, defaults made explicit, payloads of other
// kinds rejected. The receiver is not modified.
func (s *Spec) Normalize() (*Spec, error) {
	out := &Spec{Schema: SchemaVersion, Kind: s.Kind}
	if s.Schema != 0 && s.Schema != SchemaVersion {
		return nil, fmt.Errorf("jobspec: schema %d not supported (want %d)", s.Schema, SchemaVersion)
	}
	set := 0
	for _, p := range []bool{s.Sim != nil, s.MC != nil, s.Litmus != nil, s.Swarm != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("jobspec: exactly one payload must be set (got %d)", set)
	}
	switch s.Kind {
	case KindSim:
		if s.Sim == nil {
			return nil, fmt.Errorf("jobspec: kind %q without sim payload", s.Kind)
		}
		v := *s.Sim
		if err := v.normalize(); err != nil {
			return nil, err
		}
		out.Sim = &v
	case KindMC:
		if s.MC == nil {
			return nil, fmt.Errorf("jobspec: kind %q without mc payload", s.Kind)
		}
		v, err := s.MC.normalize()
		if err != nil {
			return nil, err
		}
		out.MC = v
	case KindLitmus:
		if s.Litmus == nil {
			return nil, fmt.Errorf("jobspec: kind %q without litmus payload", s.Kind)
		}
		v := *s.Litmus
		if err := v.normalize(); err != nil {
			return nil, err
		}
		out.Litmus = &v
	case KindSwarm:
		if s.Swarm == nil {
			return nil, fmt.Errorf("jobspec: kind %q without swarm payload", s.Kind)
		}
		v := *s.Swarm
		if err := v.normalize(); err != nil {
			return nil, err
		}
		out.Swarm = &v
	default:
		return nil, fmt.Errorf("jobspec: unknown kind %q (want sim|mc|litmus|swarm)", s.Kind)
	}
	return out, nil
}

func (v *SimSpec) normalize() error {
	if v.N == 0 {
		v.N = 4
	}
	if v.N < 1 || v.N > maxGridN {
		return fmt.Errorf("jobspec: sim n=%d out of range [1,%d]", v.N, maxGridN)
	}
	if v.BlockWords == 0 {
		v.BlockWords = 16
	}
	if v.BlockWords < 2 || v.BlockWords > 1024 {
		return fmt.Errorf("jobspec: sim block_words=%d out of range [2,1024]", v.BlockWords)
	}
	if v.ThinkNS == 0 {
		v.ThinkNS = 10_000
	}
	if v.ThinkNS < 0 {
		return fmt.Errorf("jobspec: sim think_ns=%d negative", v.ThinkNS)
	}
	if v.Exponential == nil {
		t := true
		v.Exponential = &t
	}
	if v.SharedLines == 0 {
		v.SharedLines = 64
	}
	if v.PrivateLines == 0 {
		v.PrivateLines = 16
	}
	if v.PShared == nil {
		p := 0.5
		v.PShared = &p
	}
	if v.PWrite == nil {
		p := 0.3
		v.PWrite = &p
	}
	if ps, pw := *v.PShared, *v.PWrite; ps < 0 || ps > 1 || pw < 0 || pw > 1 {
		return fmt.Errorf("jobspec: sim probabilities out of [0,1]: p_shared=%v p_write=%v", ps, pw)
	}
	if v.Requests == 0 {
		v.Requests = 100
	}
	if v.Requests < 0 || v.Requests > maxSimRequests {
		return fmt.Errorf("jobspec: sim requests=%d out of range [0,%d]", v.Requests, maxSimRequests)
	}
	return nil
}

func (v *MCSpec) normalize() (*MCSpec, error) {
	out := &MCSpec{Options: v.Options}
	switch {
	case v.Preset != "" && v.Scenario != nil:
		return nil, fmt.Errorf("jobspec: mc job sets both preset and scenario")
	case v.Preset != "":
		sc, err := mc.Preset(v.Preset)
		if err != nil {
			return nil, fmt.Errorf("jobspec: %v", err)
		}
		out.Scenario = &sc
	case v.Scenario != nil:
		sc := *v.Scenario
		// Deep-copy the program so normalization never aliases the input.
		sc.Procs = append([]mc.Proc(nil), sc.Procs...)
		for i := range sc.Procs {
			sc.Procs[i].Ops = append([]mc.ProcOp(nil), sc.Procs[i].Ops...)
		}
		out.Scenario = &sc
	default:
		return nil, fmt.Errorf("jobspec: mc job needs a preset or an inline scenario")
	}
	out.Scenario.FillDefaults()
	if err := out.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("jobspec: %v", err)
	}
	o := &out.Options
	if o.MaxStates == 0 {
		o.MaxStates = 200_000
	}
	if o.MaxStates < 0 || o.MaxStates > maxMCStates {
		return nil, fmt.Errorf("jobspec: mc max_states=%d out of range [0,%d]", o.MaxStates, maxMCStates)
	}
	if o.MaxStepsPerRun == 0 {
		o.MaxStepsPerRun = 20_000
	}
	if o.MaxReissues == 0 {
		o.MaxReissues = 128
	}
	return out, nil
}

// ExploreOptions lowers the canonical options into mc.Options; the
// caller supplies the execution-policy knobs (ctx, progress, checkpoint).
func (v *MCSpec) ExploreOptions() mc.Options {
	o := v.Options
	return mc.Options{
		MaxStates:      o.MaxStates,
		MaxDepth:       o.MaxDepth,
		DepthStep:      o.DepthStep,
		MaxStepsPerRun: o.MaxStepsPerRun,
		MaxReissues:    o.MaxReissues,
		DisablePOR:     o.DisablePOR,
		NoMinimize:     o.NoMinimize,
		SCNodes:        o.SCNodes,
	}
}

func (v *LitmusSpec) normalize() error {
	if v.Test == "" {
		v.Test = "all"
	}
	if v.Test != "all" {
		if _, ok := memmodel.LitmusByName(v.Test); !ok {
			return fmt.Errorf("jobspec: unknown litmus test %q", v.Test)
		}
	}
	if v.N == 0 {
		v.N = 2
	}
	if v.N < 2 || v.N > maxGridN {
		return fmt.Errorf("jobspec: litmus n=%d out of range [2,%d]", v.N, maxGridN)
	}
	if v.Seeds == 0 {
		v.Seeds = 4
	}
	if v.Seeds < 1 || v.Seeds > maxLitmusSeeds {
		return fmt.Errorf("jobspec: litmus seeds=%d out of range [1,%d]", v.Seeds, maxLitmusSeeds)
	}
	if v.Rounds == 0 {
		v.Rounds = 4
	}
	if v.Rounds < 1 || v.Rounds > 64 {
		return fmt.Errorf("jobspec: litmus rounds=%d out of range [1,64]", v.Rounds)
	}
	if v.MaxJitterNS == 0 {
		v.MaxJitterNS = 2_000
	}
	if v.MaxJitterNS < 0 {
		return fmt.Errorf("jobspec: litmus max_jitter_ns=%d negative", v.MaxJitterNS)
	}
	return nil
}

func (v *SwarmSpec) normalize() error {
	if v.Count == 0 {
		v.Count = 8
	}
	if v.Count < 1 || v.Count > maxSwarmCount {
		return fmt.Errorf("jobspec: swarm count=%d out of range [1,%d]", v.Count, maxSwarmCount)
	}
	if v.Machines == "" {
		v.Machines = "both"
	}
	switch v.Machines {
	case "both", "multicube", "singlebus":
	default:
		return fmt.Errorf("jobspec: swarm machines=%q (want both|multicube|singlebus)", v.Machines)
	}
	if v.MaxStates == 0 {
		v.MaxStates = 4000
	}
	if v.MaxStates < 0 || v.MaxStates > maxMCStates {
		return fmt.Errorf("jobspec: swarm max_states=%d out of range [0,%d]", v.MaxStates, maxMCStates)
	}
	return nil
}

// Canonical returns the byte-stable canonical encoding of the
// normalized spec. Two calls — in this process or another — return
// identical bytes for any two specs that normalize to the same job.
func (s *Spec) Canonical() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return CanonicalJSON(n)
}

// Fingerprint returns the job's identity: the hex SHA-256 of its
// canonical encoding. This is the farm's cache key.
func (s *Spec) Fingerprint() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalJSON marshals v with encoding/json and re-encodes the result
// with sorted object keys and digit-exact numbers (via json.Number, so
// 64-bit integers never round-trip through float64 and floats keep Go's
// shortest-round-trip form). The output is compact: no insignificant
// whitespace.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var g any
	if err := dec.Decode(&g); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(x.String())
	case string:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("jobspec: unencodable value %T in canonical form", v)
	}
	return nil
}
