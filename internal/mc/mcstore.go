package mc

import (
	"encoding/json"
	"fmt"

	"multicube/internal/statespace"
)

// This file adapts the explorer to internal/statespace: hashing the
// scenario and options so a checkpoint is pinned to one exploration, and
// packing work items (choice prefixes) into the store's frontier
// encoding.

// scenarioHash fingerprints the (defaults-filled) scenario. Scenario is
// a plain exported struct, so its JSON encoding is deterministic and
// covers everything the search depends on.
func scenarioHash(sc *Scenario) string {
	data, err := json.Marshal(sc)
	if err != nil {
		// Scenario contains only marshalable fields; reaching here is a
		// programming error, not an input error.
		panic(fmt.Sprintf("mc: scenario hash: %v", err))
	}
	return fmt.Sprintf("%016x", fnvString(string(data)))
}

// optionsHash fingerprints the options that shape the search itself.
// Reporting and execution-policy knobs (NoMinimize, CheckFP, Progress,
// store/checkpoint paths) are excluded: they never change which states
// the search visits, and a resume legitimately runs with different
// paths.
//
// The leading version scopes what a checkpoint's files hold: run files
// carry the fingerprints of the hasher that wrote them and frontier files
// the record layout of the explorer that wrote them, so a change of
// either bumps it and older checkpoints are refused as mismatched
// (v1: byte-wise FNV-1a; v2: internal/fphash; v3: the frontier record
// lost its skip word, and the hashed string PR 1's ample-rule field; v4:
// single-bus states are fingerprinted by the full walk alone; v5: the
// snarf eligibility bits of an in-flight READ are hashed, not packed; v6:
// the canonical fingerprint is the minimum over the relabelings that sort
// the row and column signatures, not over all of them; v7: sleep sets are
// gone, so run files and frontier records hold none, and the hashed
// string lost their option's field and a deleted test option's slot; v8:
// the store is a set, so a run is version 2, with no payload words, and a
// frontier record is its prefix alone, MCSSFR03).
func optionsHash(o *Options) string {
	s := fmt.Sprintf("v8|%d|%d|%d|%d|%d|%v|%d",
		o.MaxStates, o.MaxDepth, o.DepthStep, o.MaxStepsPerRun, o.MaxReissues,
		o.DisablePOR, o.SCNodes)
	return fmt.Sprintf("%016x", fnvString(s))
}

func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// itemsToFrontier converts the DFS stack for checkpointing, preserving
// order (resume pops in the same order the interrupted pass would have).
// A record holds the item's whole choice sequence, shared prefix and last
// choice alike.
func itemsToFrontier(stack []workItem) [][]int {
	out := make([][]int, len(stack))
	for i := range stack {
		it := &stack[i]
		out[i] = choicesOf(it, it.scripted, nil)
	}
	return out
}

func frontierToItems(prefixes [][]int) []workItem {
	out := make([]workItem, len(prefixes))
	for i, p := range prefixes {
		out[i] = workItem{prefix: p, scripted: len(p)}
	}
	return out
}

// counterMap snapshots the resumable search counters. Keys are fixed
// strings; JSON renders the map with sorted keys, so manifests stay
// byte-deterministic.
func (e *explorer) counterMap(p *passOut) map[string]uint64 {
	var flags uint64
	if p.limitAny {
		flags |= 1
	}
	if p.stepsAny {
		flags |= 2
	}
	c := e.costNow()
	return map[string]uint64{
		"runs":            uint64(p.runs),
		"flags":           flags,
		"total_runs_prev": uint64(e.totalPrev),
		"fp_rec":          c.FPRecomputes,
		"fp_inc":          c.FPIncremental,
		"fp_points":       c.FPPoints,
		"fp_combines":     c.FPCombines,
		"sc_checks":       e.scRuns,
		"sc_undec":        e.scUndec,
		"steps":           c.Steps,
		"replay_steps":    c.ReplaySteps,
		"restores":        c.Restores,
		"store_hot":       c.StoreHot,
		"store_disk":      c.StoreDisk,
		"store_reads":     c.StoreReads,
	}
}

// restoreCounters is counterMap's inverse, rebuilding the explorer's and
// the in-flight pass's counters from a checkpoint.
func (e *explorer) restoreCounters(c map[string]uint64, init *passOut) {
	init.runs = int(c["runs"])
	init.limitAny = c["flags"]&1 != 0
	init.stepsAny = c["flags"]&2 != 0
	e.totalPrev = int(c["total_runs_prev"])
	e.cost.FPRecomputes = c["fp_rec"]
	e.cost.FPIncremental = c["fp_inc"]
	e.cost.FPPoints = c["fp_points"]
	e.cost.FPCombines = c["fp_combines"]
	e.scRuns = c["sc_checks"]
	e.scUndec = c["sc_undec"]
	e.cost.Steps = c["steps"]
	e.cost.ReplaySteps = c["replay_steps"]
	e.cost.Restores = c["restores"]
	e.visited.Tier = statespace.TierCounts{HotHits: c["store_hot"], DiskLookups: c["store_disk"], DiskReads: c["store_reads"]}
}

// checkpoint atomically persists the search at a frontier boundary. The
// fault hook brackets the write so crash-injection tests can kill the
// process (or panic) exactly at the boundary.
func (e *explorer) checkpoint(depth int, stack []workItem, p *passOut) error {
	if h := e.opts.faultHook; h != nil {
		h("pre-checkpoint")
	}
	meta := statespace.Meta{
		ScenarioHash: e.scenH,
		OptionsHash:  e.optH,
		Depth:        depth,
		Counters:     e.counterMap(p),
	}
	if err := e.visited.WriteCheckpoint(meta, itemsToFrontier(stack)); err != nil {
		return err
	}
	if h := e.opts.faultHook; h != nil {
		h("post-checkpoint")
	}
	return nil
}
