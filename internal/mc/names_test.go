package mc

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestOutsideNamesAreFrozen pins the names readers outside the package
// depend on: the JSON keys of a Result, which CI's python, the farm's
// cached results and multicube-mc -json read, and the checkpoint counter
// keys, by which a checkpoint an earlier build wrote resumes with every
// counter. Renaming a field or a key breaks those readers silently.
func TestOutsideNamesAreFrozen(t *testing.T) {
	var r Result
	fill(t, reflect.ValueOf(&r).Elem())
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var vio map[string]json.RawMessage
	if err := json.Unmarshal(doc["Violation"], &vio); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(doc)
	for _, k := range sortedKeys(vio) {
		keys = append(keys, "Violation."+k)
	}
	want := []string{
		"BudgetHit", "Canceled", "Depth", "DiskBytes", "Exhausted", "FPCombines", "FPIncremental",
		"FPPoints", "FPRecomputes", "PeakBoundaries", "ReplaySteps", "Restores", "ResumeNote",
		"Resumed", "Runs", "SCChecks", "SCUndecided", "SCVerdict", "Scenario", "Spills", "States",
		"Steps", "StoreDisk", "StoreHot", "StoreReads", "Syncs", "TotalRuns", "Violation",
		"Violation.Choices", "Violation.Kind", "Violation.Msg",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("Result's JSON keys are\n %q\nwant\n %q", keys, want)
	}

	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.FillDefaults()
	e := newExplorer(&sc, Options{})
	counters := e.counterMap(&passOut{})
	wantCounters := []string{
		"flags", "fp_combines", "fp_inc", "fp_points", "fp_rec", "replay_steps", "restores", "runs",
		"sc_checks", "sc_undec", "steps", "store_disk", "store_hot", "store_reads", "total_runs_prev",
	}
	if got := sortedKeys(counters); !slices.Equal(got, wantCounters) {
		t.Errorf("the checkpoint counter keys are\n %q\nwant\n %q", got, wantCounters)
	}
}

// fill sets every field of the struct v, embedded structs' included, to
// a value that is not its zero.
func fill(t *testing.T, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			fill(t, f)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			fill(t, f.Elem())
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		default:
			t.Fatalf("fill: %s.%s is a %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
