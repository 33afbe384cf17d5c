package mc

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// comparable strips the fields two searches with the same result
// legitimately differ in: Resumed/ResumeNote report provenance, and Cost
// is what the search cost the host (see Cost). Everything else — States,
// Runs, TotalRuns, Depth, Exhausted, BudgetHit, the SC counters and
// verdict, the counterexample — must be byte-identical.
func comparable(r Result) Result {
	r.Resumed = false
	r.ResumeNote = ""
	r.Cost = Cost{}
	return r
}

// TestStoreSpillEquivalence forces the visited table through the disk
// tier with a memory budget far below the space's footprint and requires
// the exact Result of the unbounded in-memory search.
func TestStoreSpillEquivalence(t *testing.T) {
	// Budgets far below each space's hot-tier footprint (~64 bytes/state).
	budgets := map[string]int64{"read-race": 8 << 10, "sb-writeonce-race": 1 << 10}
	for _, name := range []string{"read-race", "sb-writeonce-race"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := Explore(sc, Options{MaxStates: 400000})
		if err != nil {
			t.Fatal(err)
		}
		disk, err := Explore(sc, Options{MaxStates: 400000, StoreDir: t.TempDir(), MemBudget: budgets[name]})
		if err != nil {
			t.Fatal(err)
		}
		if disk.Spills == 0 {
			t.Fatalf("%s: 8KiB budget produced no spills; the disk tier was never exercised", name)
		}
		if !reflect.DeepEqual(comparable(mem), comparable(disk)) {
			t.Fatalf("%s: spilled result differs from in-memory:\n  mem:  %+v\n  disk: %+v", name, mem, disk)
		}
		t.Logf("%s: %d states identical across %d spills (%d bytes on disk)",
			name, disk.States, disk.Spills, disk.DiskBytes)
	}
}

// crashPanic is the sentinel the in-process fault hook throws; the test
// recovers it to simulate dying mid-search without taking the process
// down.
type crashPanic struct{}

// TestCrashResumeInProcess kills an exploration at randomized checkpoint
// boundaries via the in-process fault hook, resumes it, and requires the
// final Result byte-identical to an uninterrupted run — for both a clean
// scenario and one with the injected §5.6a bug (so the counterexample
// path is covered too).
func TestCrashResumeInProcess(t *testing.T) {
	for _, inject := range []bool{false, true} {
		sc, err := Preset("read-race")
		if err != nil {
			t.Fatal(err)
		}
		sc.InjectStaleReply = inject
		base, err := Explore(sc, Options{MaxStates: 400000})
		if err != nil {
			t.Fatal(err)
		}
		// Kill after 1, 3, and 7 checkpoints: early, mid, and late
		// boundaries relative to the ~33 (clean) and ~13 (injected)
		// checkpoint opportunities read-race offers at every=100.
		for _, killAfter := range []int{1, 3, 7} {
			dir := t.TempDir()
			opts := Options{MaxStates: 400000, CheckpointDir: dir, CheckpointEvery: 100}
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(crashPanic); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				seen := 0
				o := opts
				o.faultHook = func(point string) {
					if point == "post-checkpoint" {
						if seen++; seen >= killAfter {
							panic(crashPanic{})
						}
					}
				}
				if _, err := Explore(sc, o); err != nil {
					t.Errorf("inject=%v kill=%d: pre-crash explore: %v", inject, killAfter, err)
				}
			}()
			if !crashed {
				t.Fatalf("inject=%v kill=%d: search finished before the fault hook fired", inject, killAfter)
			}
			o := opts
			o.Resume = true
			res, err := Explore(sc, o)
			if err != nil {
				t.Fatalf("inject=%v kill=%d: resume: %v", inject, killAfter, err)
			}
			if !res.Resumed {
				t.Fatalf("inject=%v kill=%d: resumed run did not report Resumed", inject, killAfter)
			}
			if !reflect.DeepEqual(comparable(base), comparable(res)) {
				t.Fatalf("inject=%v kill=%d: resumed result differs:\n  base:    %+v\n  resumed: %+v",
					inject, killAfter, base, res)
			}
		}
	}
}

// TestCrashResumeProcessKill is the process-level half of the crash
// layer: a child test process SIGKILLs itself at a checkpoint boundary —
// no deferred cleanup, no atexit, exactly what a crashed or OOM-killed
// run leaves behind — and the parent resumes from its droppings.
func TestCrashResumeProcessKill(t *testing.T) {
	if os.Getenv("MC_CRASH_DIR") != "" {
		// Child mode: explore with a hook that SIGKILLs this process
		// after MC_CRASH_AFTER checkpoints.
		sc, err := Preset("read-race")
		if err != nil {
			t.Fatal(err)
		}
		after, _ := strconv.Atoi(os.Getenv("MC_CRASH_AFTER"))
		seen := 0
		_, err = Explore(sc, Options{
			MaxStates:       400000,
			CheckpointDir:   os.Getenv("MC_CRASH_DIR"),
			CheckpointEvery: 200,
			faultHook: func(point string) {
				if point == "post-checkpoint" {
					if seen++; seen >= after {
						_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
						select {} // unreachable; SIGKILL is not deliverable to a handler
					}
				}
			},
		})
		t.Fatalf("child survived its own SIGKILL (explore err %v)", err)
	}

	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashResumeProcessKill$", "-test.v")
	cmd.Env = append(os.Environ(), "MC_CRASH_DIR="+dir, "MC_CRASH_AFTER=2")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err == nil {
		t.Fatalf("child exited cleanly; expected SIGKILL. Output:\n%s", out)
	} else if !errors.As(err, &ee) {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatalf("child left no checkpoint manifest: %v\n%s", err, out)
	}
	res, err := Explore(sc, Options{MaxStates: 400000, CheckpointDir: dir, CheckpointEvery: 200, Resume: true})
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if !res.Resumed {
		t.Fatal("resume after SIGKILL did not report Resumed")
	}
	if !reflect.DeepEqual(comparable(base), comparable(res)) {
		t.Fatalf("post-SIGKILL resume differs:\n  base:    %+v\n  resumed: %+v", base, res)
	}
}

// crashAtCheckpoint explores until the after-th checkpoint is durable and
// dies there, leaving the checkpoint behind.
func crashAtCheckpoint(t *testing.T, sc Scenario, opts Options, after int) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("search finished before checkpoint %d", after)
		} else if _, ok := r.(crashPanic); !ok {
			panic(r)
		}
	}()
	seen := 0
	opts.faultHook = func(p string) {
		if p == "post-checkpoint" {
			if seen++; seen >= after {
				panic(crashPanic{})
			}
		}
	}
	_, _ = Explore(sc, opts)
}

// TestResumeDetectsCorruption damages a checkpoint — a spilled shard
// truncated under a valid manifest, and the manifest put back to schema 1,
// which records no shard bits to read its runs by — and requires resume to
// refuse the damage, report it, and re-explore from scratch to the correct
// result.
func TestResumeDetectsCorruption(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(t *testing.T, dir string){
		"truncated shard": func(t *testing.T, dir string) {
			runs, err := filepath.Glob(filepath.Join(dir, "*.run"))
			if err != nil || len(runs) == 0 {
				t.Fatalf("no spilled shards to corrupt (err %v)", err)
			}
			data, err := os.ReadFile(runs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(runs[0], data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"schema-1 manifest": func(t *testing.T, dir string) {
			manifest := filepath.Join(dir, "MANIFEST.json")
			data, err := os.ReadFile(manifest)
			if err != nil || strings.Count(string(data), `"schema": 2`) != 1 {
				t.Fatalf("no schema-2 manifest to put back (err %v)", err)
			}
			if err := os.WriteFile(manifest, []byte(strings.Replace(string(data), `"schema": 2`, `"schema": 1`, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{MaxStates: 400000, CheckpointDir: dir, CheckpointEvery: 200, MemBudget: 8 << 10}
			// Crash once mid-run so a checkpoint with spilled shards exists.
			crashAtCheckpoint(t, sc, opts, 1)
			damage(t, dir)
			opts.Resume = true
			res, err := Explore(sc, opts)
			if err != nil {
				t.Fatalf("resume over corruption: %v", err)
			}
			if res.Resumed {
				t.Fatal("resume accepted the damaged checkpoint")
			}
			if !strings.Contains(res.ResumeNote, "corrupt") {
				t.Fatalf("ResumeNote %q does not report the corruption", res.ResumeNote)
			}
			if !reflect.DeepEqual(comparable(base), comparable(res)) {
				t.Fatalf("re-exploration after corruption differs:\n  base: %+v\n  got:  %+v", base, res)
			}
		})
	}
}

// TestResumeUnderAnotherBudget: the memory budget sets how many shards
// the store keeps, a checkpoint's runs are cut along them, and the budget
// is no part of the options hash — a resume may well come with another.
// A checkpoint written at 128 KiB (8 shards) must resume at 8 KiB (one
// shard, were it opened fresh) and with no budget (64) to the
// uninterrupted result.
func TestResumeUnderAnotherBudget(t *testing.T) {
	sc, err := Preset("litmus-coww-3x3")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{8 << 10, 0} {
		opts := Options{MaxStates: 400000, CheckpointDir: t.TempDir(), CheckpointEvery: 2000, MemBudget: 128 << 10}
		crashAtCheckpoint(t, sc, opts, 3)
		opts.MemBudget, opts.Resume = budget, true
		res, err := Explore(sc, opts)
		if err != nil {
			t.Fatalf("resume under budget %d: %v", budget, err)
		}
		if !res.Resumed {
			t.Fatalf("resume under budget %d fell back to a fresh search: %s", budget, res.ResumeNote)
		}
		if !reflect.DeepEqual(comparable(base), comparable(res)) {
			t.Fatalf("resume under budget %d differs:\n  base:    %+v\n  resumed: %+v", budget, base, res)
		}
	}
}

// TestStoreFailureStopsAtNextBoundary takes the spill directory away in
// the middle of a search and requires the search to stop at the first
// frontier boundary after the store reports the failed spill, returning
// the error and never claiming coverage.
// litmus-coww-3x3 takes 17 630 runs; under this budget the store is one
// shard that spills every 32 states, a few dozen runs, so the failure
// surfaces well within 200 runs of the removal.
func TestStoreFailureStopsAtNextBoundary(t *testing.T) {
	sc, err := Preset("litmus-coww-3x3")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	calls := 0
	res, err := Explore(sc, Options{
		MaxStates: 400000, StoreDir: dir, MemBudget: 2 << 10,
		Progress: func(Progress) {
			if calls++; calls == 200 {
				os.RemoveAll(dir)
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("search over a removed store returned %v, want the spill error", err)
	}
	if res.Exhausted || res.Runs < 200 || res.Runs >= 400 {
		t.Fatalf("store removed at run 200, search stopped at run %d (exhausted=%v)", res.Runs, res.Exhausted)
	}
	t.Logf("store removed at run 200, search stopped at run %d: %v", res.Runs, err)
}

// TestResumeNothingToResume pins the fresh-start path: -resume with an
// empty checkpoint directory runs normally with Resumed=false.
func TestResumeNothingToResume(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sc, Options{MaxStates: 400000, CheckpointDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed {
		t.Fatal("Resumed reported with nothing to resume")
	}
	if !reflect.DeepEqual(comparable(base), comparable(res)) {
		t.Fatalf("fresh checkpointed run differs from plain run:\n  base: %+v\n  got:  %+v", base, res)
	}
}

// TestResumeRejectsOlderHasherCheckpoint re-stamps a checkpoint with the
// options hash its manifest would carry had an earlier explorer written
// it — "v2|…|legacyAmple|legacyFP", whose frontier file is in a record
// layout this explorer does not read, "v3|…", whose single-bus run
// files hold the fingerprints of the incremental cache the baseline no
// longer has, "v4|…", whose run files hold a snarfing state's
// eligibility bits packed into a word where this explorer hashes them,
// and "v5|…", whose run files hold the minimum over all twelve
// relabelings of a 3×3 state where this explorer keeps the minimum over
// those that sort its signatures — so resume must refuse it as
// mismatched, say so, and search afresh to the uninterrupted result.
func TestResumeRejectsOlderHasherCheckpoint(t *testing.T) {
	for _, c := range []struct {
		version, preset string
		states          int // budget; the snarfing preset is cut short to stay cheap
		stamp           func(o *Options) string
	}{
		{"v2", "read-race", 400000, func(o *Options) string {
			return fmt.Sprintf("v2|%d|%d|%d|%d|%d|%v|%v|%d|%v|%v",
				o.MaxStates, o.MaxDepth, o.DepthStep, o.MaxStepsPerRun, o.MaxReissues,
				o.DisablePOR, o.DisableSleep, o.SCNodes, false, false)
		}},
		{"v3", "litmus-iriw-sb", 400000, func(o *Options) string {
			return fmt.Sprintf("v3|%d|%d|%d|%d|%d|%v|%v|%d|%v",
				o.MaxStates, o.MaxDepth, o.DepthStep, o.MaxStepsPerRun, o.MaxReissues,
				o.DisablePOR, o.DisableSleep, o.SCNodes, false)
		}},
		{"v4", "read-snarf", 3000, func(o *Options) string {
			return fmt.Sprintf("v4|%d|%d|%d|%d|%d|%v|%v|%d|%v",
				o.MaxStates, o.MaxDepth, o.DepthStep, o.MaxStepsPerRun, o.MaxReissues,
				o.DisablePOR, o.DisableSleep, o.SCNodes, false)
		}},
		{"v5", "litmus-coww-3x3", 3000, func(o *Options) string {
			return fmt.Sprintf("v5|%d|%d|%d|%d|%d|%v|%v|%d|%v",
				o.MaxStates, o.MaxDepth, o.DepthStep, o.MaxStepsPerRun, o.MaxReissues,
				o.DisablePOR, o.DisableSleep, o.SCNodes, false)
		}},
	} {
		t.Run(c.version, func(t *testing.T) {
			sc, err := Preset(c.preset)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Explore(sc, Options{MaxStates: c.states})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			opts := Options{MaxStates: c.states, CheckpointDir: dir, CheckpointEvery: 200, MemBudget: 8 << 10}
			crashAtCheckpoint(t, sc, opts, 1)

			o := opts
			o.fillDefaults()
			current := optionsHash(&o)
			older := fmt.Sprintf("%016x", fnvString(c.stamp(&o)))
			if older == current {
				t.Fatal("the options hash did not change with the checkpoint format")
			}
			manifest := filepath.Join(dir, "MANIFEST.json")
			data, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatalf("no checkpoint to re-stamp: %v", err)
			}
			if strings.Count(string(data), current) != 1 {
				t.Fatalf("manifest does not carry the current options hash %s exactly once", current)
			}
			if err := os.WriteFile(manifest, []byte(strings.Replace(string(data), current, older, 1)), 0o644); err != nil {
				t.Fatal(err)
			}

			o = opts
			o.Resume = true
			res, err := Explore(sc, o)
			if err != nil {
				t.Fatalf("resume over a %s checkpoint: %v", c.version, err)
			}
			if res.Resumed {
				t.Fatal("resumed from a checkpoint an earlier explorer wrote")
			}
			if !strings.Contains(res.ResumeNote, "does not match") {
				t.Fatalf("ResumeNote %q does not report the mismatch", res.ResumeNote)
			}
			if !reflect.DeepEqual(comparable(base), comparable(res)) {
				t.Fatalf("fresh search after the refusal differs:\n  base: %+v\n  got:  %+v", base, res)
			}
		})
	}
}
