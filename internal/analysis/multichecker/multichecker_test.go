package multichecker_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"multicube/internal/analysis/analysistest"
	"multicube/internal/analysis/multichecker"
)

const (
	seededPkg   = "./internal/analysis/multichecker/testdata/seeded"
	unmarkedPkg = "./internal/analysis/multichecker/testdata/unmarked"
)

func TestSuiteNames(t *testing.T) {
	want := []string{"genbump", "detmap", "nowallclock", "chooserseam", "nolockstep", "inclusion", "atomicwrite"}
	suite := multichecker.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run function", a.Name)
		}
	}
}

// TestRepoClean is the CI gate's positive half: the suite must pass over
// the entire repository with no findings and no output.
func TestRepoClean(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{"./..."})
	if code != multichecker.ExitClean {
		t.Fatalf("multicube-vet ./... = exit %d, want %d; output:\n%s", code, multichecker.ExitClean, buf.String())
	}
	if buf.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", buf.String())
	}
}

// TestSeededFixtureFails is the negative half: a package violating every
// invariant must fail with a finding from each analyzer.
func TestSeededFixtureFails(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{seededPkg})
	if code != multichecker.ExitFindings {
		t.Fatalf("seeded fixture = exit %d, want %d; output:\n%s", code, multichecker.ExitFindings, buf.String())
	}
	out := buf.String()
	for _, name := range []string{"genbump", "detmap", "nowallclock", "chooserseam", "inclusion", "atomicwrite"} {
		if !strings.Contains(out, "("+name+")") {
			t.Errorf("no %s finding against the seeded fixture; output:\n%s", name, out)
		}
	}
}

// TestUnmarkedFixtureClean: without the deterministic marker or
// registered fingerprint state, the same constructs produce nothing.
func TestUnmarkedFixtureClean(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{unmarkedPkg})
	if code != multichecker.ExitClean {
		t.Fatalf("unmarked fixture = exit %d, want %d; output:\n%s", code, multichecker.ExitClean, buf.String())
	}
}

func TestOnlyFilter(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{"-only=detmap", seededPkg})
	if code != multichecker.ExitFindings {
		t.Fatalf("-only=detmap on seeded fixture = exit %d, want %d", code, multichecker.ExitFindings)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasSuffix(line, "(detmap)") {
			t.Errorf("-only=detmap leaked another analyzer's finding: %s", line)
		}
	}

	buf.Reset()
	if code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{"-only=bogus", seededPkg}); code != multichecker.ExitError {
		t.Errorf("-only=bogus = exit %d, want %d", code, multichecker.ExitError)
	}
	if !strings.Contains(buf.String(), `unknown analyzer "bogus"`) {
		t.Errorf("missing unknown-analyzer message; output:\n%s", buf.String())
	}
}

func TestTimingFlag(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{"-time", unmarkedPkg})
	if code != multichecker.ExitClean {
		t.Fatalf("-time on unmarked fixture = exit %d, want %d; output:\n%s", code, multichecker.ExitClean, buf.String())
	}
	for _, name := range []string{"genbump", "detmap", "nowallclock", "chooserseam", "inclusion", "atomicwrite"} {
		if !strings.Contains(buf.String(), "# "+name) {
			t.Errorf("missing %s timing line; output:\n%s", name, buf.String())
		}
	}
}

// TestJSONOutput pins the -json report shape CI's artifact upload and
// the benchmark harness consume: every finding carries its pass and a
// module-relative position; every analyzer reports a wall time.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	code := multichecker.Run(analysistest.ModuleRoot(t), &buf, []string{"-json", seededPkg})
	if code != multichecker.ExitFindings {
		t.Fatalf("-json on seeded fixture = exit %d, want %d; output:\n%s", code, multichecker.ExitFindings, buf.String())
	}
	var rep struct {
		Packages []string `json:"packages"`
		Findings []struct {
			Pass    string `json:"pass"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Message string `json:"message"`
		} `json:"findings"`
		AnalyzerMS []struct {
			Pass string  `json:"pass"`
			MS   float64 `json:"ms"`
		} `json:"analyzer_ms"`
		EndToEndS float64 `json:"end_to_end_sec"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(rep.Packages) != 1 || !strings.HasSuffix(rep.Packages[0], "testdata/seeded") {
		t.Errorf("packages = %v, want the seeded fixture", rep.Packages)
	}
	passes := make(map[string]bool)
	for _, f := range rep.Findings {
		passes[f.Pass] = true
		if f.File != "internal/analysis/multichecker/testdata/seeded/seeded.go" {
			t.Errorf("finding file %q not module-relative", f.File)
		}
		if f.Line == 0 || f.Col == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	for _, name := range []string{"genbump", "inclusion", "atomicwrite"} {
		if !passes[name] {
			t.Errorf("no %s finding in JSON report", name)
		}
	}
	if len(rep.AnalyzerMS) != len(multichecker.Suite()) {
		t.Errorf("analyzer_ms has %d entries, want %d", len(rep.AnalyzerMS), len(multichecker.Suite()))
	}
	if rep.EndToEndS <= 0 {
		t.Errorf("end_to_end_sec = %v, want > 0", rep.EndToEndS)
	}
}
