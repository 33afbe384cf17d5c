package farm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"multicube/internal/core"
	"multicube/internal/farm/jobspec"
	"multicube/internal/mc"
	"multicube/internal/memmodel"
	"multicube/internal/sim"
	"multicube/internal/workload"
)

// Progress is a point-in-time view of a running job, streamed to
// clients as NDJSON and folded into the server metrics. Fields are
// populated per kind: mc/swarm report explorer counters, sim reports
// reference/event counts, litmus and swarm report sub-cases done.
type Progress struct {
	// States and Frontier mirror mc.Progress for explorer-backed jobs.
	States   int `json:"states,omitempty"`
	Runs     int `json:"runs,omitempty"`
	Frontier int `json:"frontier,omitempty"`
	// References and Events count the timed machine's work.
	References uint64 `json:"references,omitempty"`
	Events     uint64 `json:"events,omitempty"`
	// Done and Total count sub-cases of batch jobs (litmus sweeps,
	// swarm seeds).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// executor runs normalized specs. It is stateless; everything it needs
// arrives per call, so the worker pool shares one.
type executor struct {
	// checkpointRoot, when non-empty, gives each mc job a checkpoint
	// directory keyed by its fingerprint, making killed jobs resumable
	// on resubmission.
	checkpointRoot string
	// mcCheckpointEvery overrides the checkpoint cadence (0 = explorer
	// default).
	mcCheckpointEvery int
}

// run executes spec (already normalized, fingerprinted fp) and returns
// the cacheable result. The context cancels cooperatively: partial work
// is marked with the "canceled" verdict and not cached by the caller.
// progress may be nil.
func (x *executor) run(ctx context.Context, spec *jobspec.Spec, fp string, progress func(Progress)) *jobspec.Result {
	res := &jobspec.Result{Schema: jobspec.SchemaVersion, Kind: spec.Kind, Fingerprint: fp}
	report := func(p Progress) {
		if progress != nil {
			progress(p)
		}
	}
	switch spec.Kind {
	case jobspec.KindMC:
		x.runMC(ctx, spec.MC, res, report)
	case jobspec.KindSim:
		x.runSim(ctx, spec.Sim, res, report)
	case jobspec.KindLitmus:
		x.runLitmus(ctx, spec.Litmus, res, report)
	case jobspec.KindSwarm:
		x.runSwarm(ctx, spec.Swarm, res, report)
	default:
		res.Verdict = "error"
		res.Error = fmt.Sprintf("farm: unknown job kind %q", spec.Kind)
	}
	return res
}

func (x *executor) runMC(ctx context.Context, spec *jobspec.MCSpec, res *jobspec.Result, report func(Progress)) {
	opts := spec.ExploreOptions()
	opts.Ctx = ctx
	ckdir := ""
	if x.checkpointRoot != "" {
		// Per-job checkpoint directory under the job fingerprint, sharded
		// like the result cache. Resume is unconditional: a fresh job sees
		// an empty directory (ErrNoCheckpoint → fresh start), a resubmitted
		// killed job picks up where it stopped with an identical verdict.
		ckdir = filepath.Join(x.checkpointRoot, fpShard(res.Fingerprint), res.Fingerprint)
		opts.CheckpointDir = ckdir
		opts.CheckpointEvery = x.mcCheckpointEvery
		opts.Resume = true
	}
	opts.Progress = func(p mc.Progress) {
		report(Progress{States: p.States, Runs: p.Runs, Frontier: p.Frontier})
	}
	r, err := mc.Explore(*spec.Scenario, opts)
	if err != nil {
		res.Verdict = "error"
		res.Error = err.Error()
		return
	}
	if ckdir != "" && !r.Canceled {
		// The completed result supersedes the checkpoint (it will be
		// cached under the same fingerprint); canceled jobs keep theirs
		// so resubmission resumes.
		//multicube:atomicwrite-ok the cached result under the same fingerprint supersedes the checkpoint
		os.RemoveAll(ckdir)
	}
	res.MC = &jobspec.MCResult{Result: r}
	switch {
	case r.Violation != nil:
		res.Verdict = "violation"
	case r.Canceled:
		res.Verdict = "canceled"
	case r.SCVerdict == "undecided":
		res.Verdict = "undecided"
	default:
		res.Verdict = "ok"
	}
}

// fpShard mirrors the result cache's directory sharding for checkpoint
// roots: two-hex-digit prefix, so no directory grows unboundedly.
func fpShard(fp string) string {
	if len(fp) >= 2 {
		return fp[:2]
	}
	return "xx"
}

// genConfig is the workload a normalized sim spec describes.
func genConfig(spec *jobspec.SimSpec) workload.GenConfig {
	return workload.GenConfig{
		Seed:        spec.Seed,
		Think:       sim.Time(spec.ThinkNS),
		Exponential: spec.Exponential == nil || *spec.Exponential,
		SharedLines: spec.SharedLines, PrivateLines: spec.PrivateLines,
		PShared: *spec.PShared, PWrite: *spec.PWrite,
		Requests: spec.Requests,
	}
}

func (x *executor) runSim(ctx context.Context, spec *jobspec.SimSpec, res *jobspec.Result, report func(Progress)) {
	m, err := core.New(core.Config{
		N:          spec.N,
		BlockWords: spec.BlockWords,
		CacheLines: spec.CacheLines, CacheAssoc: spec.CacheAssoc,
		MLTEntries: spec.MLTEntries, MLTAssoc: spec.MLTAssoc,
		Snarf: spec.Snarf,
	})
	if err != nil {
		res.Verdict = "error"
		res.Error = err.Error()
		return
	}
	rep := workload.RunCtx(ctx, m, genConfig(spec), func(refs, events uint64) {
		report(Progress{References: refs, Events: events})
	})
	sr := &jobspec.SimResult{
		References:      rep.References,
		BusTransactions: rep.BusTransactions,
		ElapsedSimNS:    int64(rep.Elapsed),
		Efficiency:      rep.Efficiency(),
		BusRatePerMS:    rep.BusRate(m.Processors()),
	}
	res.Sim = sr
	if rep.Canceled {
		res.Verdict = "canceled"
		return
	}
	for _, e := range m.CheckInvariants() {
		sr.Invariants = append(sr.Invariants, e.Error())
	}
	if len(sr.Invariants) > 0 {
		res.Verdict = "violation"
	} else {
		res.Verdict = "ok"
	}
}

func (x *executor) runLitmus(ctx context.Context, spec *jobspec.LitmusSpec, res *jobspec.Result, report func(Progress)) {
	runs, err := workload.LitmusSweep(spec.Test, spec.Seeds, workload.LitmusConfig{
		N: spec.N, Rounds: spec.Rounds, Seed: spec.BaseSeed,
		MaxJitter: sim.Time(spec.MaxJitterNS), SCNodes: spec.SCNodes,
	})
	if err != nil {
		res.Verdict = "error"
		res.Error = err.Error()
		return
	}
	lr := &jobspec.LitmusResult{}
	res.Litmus = lr
	for _, cfg := range runs {
		if ctx.Err() != nil {
			res.Verdict = "canceled"
			return
		}
		rep, err := workload.RunLitmus(cfg)
		if err != nil {
			res.Verdict = "error"
			res.Error = err.Error()
			return
		}
		lr.Runs++
		report(Progress{Done: lr.Runs, Total: len(runs), Events: uint64(rep.History.Len())})
		if rep.Check.Verdict == memmodel.VerdictOK {
			continue
		}
		lr.Failures = append(lr.Failures, jobspec.LitmusFailure{
			Test: cfg.Test, Placement: cfg.Placement(), Seed: cfg.Seed,
			Verdict: rep.Check.Verdict.String(), Reason: rep.Check.Reason,
		})
	}
	switch {
	case len(lr.Failures) == 0:
		res.Verdict = "ok"
	case onlyUndecided(lr.Failures):
		res.Verdict = "undecided"
	default:
		res.Verdict = "violation"
	}
}

func onlyUndecided(fs []jobspec.LitmusFailure) bool {
	for _, f := range fs {
		if f.Verdict != memmodel.VerdictUndecided.String() {
			return false
		}
	}
	return true
}

func (x *executor) runSwarm(ctx context.Context, spec *jobspec.SwarmSpec, res *jobspec.Result, report func(Progress)) {
	sr := &jobspec.SwarmResult{}
	res.Swarm = sr
	var machines []bool // singleBus values to run
	switch spec.Machines {
	case "multicube":
		machines = []bool{false}
	case "singlebus":
		machines = []bool{true}
	default:
		machines = []bool{false, true}
	}
	total := spec.Count * len(machines)
	for i := 0; i < spec.Count; i++ {
		seed := spec.BaseSeed + int64(i)
		for _, singleBus := range machines {
			if ctx.Err() != nil {
				res.Verdict = "canceled"
				return
			}
			sc := mc.SwarmScenario(seed, singleBus)
			r, err := mc.Explore(sc, mc.Options{
				MaxStates: spec.MaxStates,
				Ctx:       ctx,
			})
			if err != nil {
				res.Verdict = "error"
				res.Error = err.Error()
				return
			}
			if r.Canceled {
				res.Verdict = "canceled"
				return
			}
			sr.Cases++
			sr.StatesTotal += r.States
			report(Progress{Done: sr.Cases, Total: total, States: sr.StatesTotal})
			if r.Violation != nil {
				sr.Violations = append(sr.Violations, jobspec.SwarmViolation{
					Seed: seed, SingleBus: singleBus,
					Kind: r.Violation.Kind, Msg: r.Violation.Msg,
					Choices: r.Violation.Choices, States: r.States,
				})
			}
		}
	}
	if len(sr.Violations) > 0 {
		res.Verdict = "violation"
	} else {
		res.Verdict = "ok"
	}
}
