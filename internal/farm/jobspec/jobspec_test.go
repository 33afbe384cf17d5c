package jobspec

import (
	"bytes"
	"encoding/json"
	"testing"

	"multicube/internal/mc"
	"multicube/internal/topology"
)

func specs(t *testing.T) []Spec {
	t.Helper()
	inline := &mc.Scenario{
		Name: "inline-race",
		Procs: []mc.Proc{
			{At: topology.Coord{Row: 0, Col: 0}, Ops: []mc.ProcOp{{Kind: mc.OpWrite, Line: 0}, {Kind: mc.OpRead, Line: 0}}},
			{At: topology.Coord{Row: 1, Col: 1}, Ops: []mc.ProcOp{{Kind: mc.OpWrite, Line: 0}}},
		},
	}
	return []Spec{
		{Kind: KindSim, Sim: &SimSpec{N: 2, Seed: 1<<63 + 12345, PShared: f64(0.3), PWrite: f64(0.1), Requests: 40}},
		{Kind: KindMC, MC: &MCSpec{Preset: "sb-victim-race"}},
		{Kind: KindMC, MC: &MCSpec{Scenario: inline, Options: MCOptions{MaxStates: 5000}}},
		{Kind: KindLitmus, Litmus: &LitmusSpec{Test: "mp", Seeds: 2, Rounds: 2}},
		{Kind: KindSwarm, Swarm: &SwarmSpec{BaseSeed: 9000, Count: 4}},
	}
}

// TestCanonicalRoundTrip is the cache-key correctness foundation:
// encode → decode → re-encode must be byte-identical, and the decoded
// spec's fingerprint must equal the original's — across arbitrary JSON
// re-marshaling, i.e. across processes.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, s := range specs(t) {
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		fp1, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}

		// Decode the canonical bytes as a wire client would and re-encode.
		var back Spec
		if err := json.Unmarshal(c1, &back); err != nil {
			t.Fatalf("%s: decoding canonical form: %v", s.Kind, err)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("%s: re-canonicalizing: %v", s.Kind, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonical encoding not a fixed point:\n first: %s\nsecond: %s", s.Kind, c1, c2)
		}
		fp2, err := back.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		if fp1 != fp2 {
			t.Fatalf("%s: fingerprint drifted across encode→decode: %s vs %s", s.Kind, fp1, fp2)
		}
	}
}

// TestDefaultsDoNotSplitIdentity: a spec with defaults omitted and one
// with them spelled out are the same job.
func TestDefaultsDoNotSplitIdentity(t *testing.T) {
	bare := Spec{Kind: KindSwarm, Swarm: &SwarmSpec{BaseSeed: 7}}
	full := Spec{Kind: KindSwarm, Swarm: &SwarmSpec{BaseSeed: 7, Count: 8, Machines: "both", MaxStates: 4000}}
	fp1, err := bare.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("defaulted and explicit specs split identity: %s vs %s", fp1, fp2)
	}
}

func f64(v float64) *float64 { return &v }

// fingerprintOf decodes a submitted spec as the server does and
// returns its fingerprint.
func fingerprintOf(t *testing.T, body string) string {
	t.Helper()
	var s Spec
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	f, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestExplicitZeroIsNotADefault: an explicit zero probability is a
// different job from an omitted one, which fills the default; and an
// omitted one is the same job as the default spelled out.
func TestExplicitZeroIsNotADefault(t *testing.T) {
	fp := func(body string) string { return fingerprintOf(t, body) }
	zero := fp(`{"kind":"sim","sim":{"p_shared":0,"p_write":0}}`)
	omitted := fp(`{"kind":"sim","sim":{}}`)
	if zero == omitted {
		t.Fatalf("explicit zero probabilities took the defaults' fingerprint %s", zero)
	}
	if spelled := fp(`{"kind":"sim","sim":{"p_shared":0.5,"p_write":0.3}}`); spelled != omitted {
		t.Fatalf("defaulted and explicit probabilities split identity: %s vs %s", omitted, spelled)
	}
}

// TestRemovedSleepOptionIsIgnored: a spec written for an explorer with
// sleep sets may still carry "disable_sleep". It is accepted, because
// decoding ignores a field the spec no longer has, and it names the same
// job as the spec without it: both now run the one search there is.
func TestRemovedSleepOptionIsIgnored(t *testing.T) {
	with := fingerprintOf(t, `{"kind":"mc","mc":{"preset":"read-race","options":{"disable_sleep":true}}}`)
	without := fingerprintOf(t, `{"kind":"mc","mc":{"preset":"read-race","options":{}}}`)
	if with != without {
		t.Fatalf("disable_sleep split identity: %s vs %s", with, without)
	}
}

// TestPresetExpansion: a preset job and the identical inline scenario
// canonicalize to the same fingerprint (presets are spellings, not
// identities).
func TestPresetExpansion(t *testing.T) {
	byName := Spec{Kind: KindMC, MC: &MCSpec{Preset: "sb-victim-race"}}
	sc, err := mc.Preset("sb-victim-race")
	if err != nil {
		t.Fatal(err)
	}
	inline := Spec{Kind: KindMC, MC: &MCSpec{Scenario: &sc}}
	fp1, err := byName.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := inline.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("preset and inline scenario split identity: %s vs %s", fp1, fp2)
	}
}

// TestFloatAndSeedStability: shortest-round-trip floats and full-width
// 64-bit seeds survive canonicalization digit-exactly (no float64 trip
// for integers, no drift for fractions like 0.3 with no exact binary
// form).
func TestFloatAndSeedStability(t *testing.T) {
	s := Spec{Kind: KindSim, Sim: &SimSpec{
		N: 2, Seed: 18446744073709551615, PShared: f64(0.3), PWrite: f64(0.7), Requests: 10,
	}}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed":18446744073709551615`, `"p_shared":0.3`, `"p_write":0.7`} {
		if !bytes.Contains(c, []byte(want)) {
			t.Fatalf("canonical form lost %s:\n%s", want, c)
		}
	}
}

// TestCanonicalSortsKeys: the canonical encoder emits object keys
// sorted regardless of input order.
func TestCanonicalSortsKeys(t *testing.T) {
	got, err := CanonicalJSON(map[string]any{"zeta": 1, "alpha": map[string]any{"y": true, "x": "s"}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"alpha":{"x":"s","y":true},"zeta":1}`
	if string(got) != want {
		t.Fatalf("canonical JSON = %s, want %s", got, want)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Kind: "nope", Sim: &SimSpec{}},
		{Kind: KindMC},
		{Kind: KindMC, MC: &MCSpec{}},
		{Kind: KindMC, MC: &MCSpec{Preset: "no-such-preset"}},
		{Kind: KindMC, MC: &MCSpec{Preset: "read-race", Scenario: &mc.Scenario{}}},
		{Kind: KindSim, Sim: &SimSpec{N: 99}},
		{Kind: KindSim, Sim: &SimSpec{PShared: f64(1.5)}},
		{Kind: KindLitmus, Litmus: &LitmusSpec{Test: "zzz"}},
		{Kind: KindSwarm, Swarm: &SwarmSpec{Machines: "abacus"}},
		{Kind: KindSwarm, Swarm: &SwarmSpec{Count: maxSwarmCount + 1}},
		{Kind: KindSim, Sim: &SimSpec{}, MC: &MCSpec{Preset: "read-race"}},
		{Schema: 99, Kind: KindSwarm, Swarm: &SwarmSpec{}},
	}
	for i, s := range cases {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d (%+v): Normalize accepted an invalid spec", i, s)
		}
	}
}

// TestResultEncodeStable: result payloads canonicalize to a fixed point
// too — the property the byte-identical cache guarantee rides on.
func TestResultEncodeStable(t *testing.T) {
	r := &Result{
		Kind:        KindMC,
		Fingerprint: "abc",
		Verdict:     "violation",
		MC: &MCResult{Result: mc.Result{
			Scenario: "x", States: 42, Runs: 7, Exhausted: true,
			Violation: &mc.Violation{Kind: "sc", Msg: "stale", Choices: []int{1, 0, 2}},
		}},
	}
	b1, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("result encoding not a fixed point:\n first: %s\nsecond: %s", b1, b2)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}
