package synth

import (
	"strings"
	"testing"

	"rasc/internal/bitvector"
	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
	"rasc/internal/pdm"
	"rasc/internal/spec"
)

const privilegeSpec = `
start state Unpriv :
    | seteuid_zero -> Priv;

state Priv :
    | seteuid_nonzero -> Unpriv
    | execl -> Error;

accept state Error;
`

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Functions: 5, StmtsPerFn: 20, CallProb: 0.2, BranchProb: 0.2, LoopProb: 0.1,
		SafePatterns: 2, UnsafePatterns: 1}
	a, b := Generate(cfg), Generate(cfg)
	if a != b {
		t.Error("generation must be deterministic per seed")
	}
	cfg.Seed = 8
	if Generate(cfg) == a {
		t.Error("different seeds should differ")
	}
}

func TestGeneratedProgramsParse(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{Seed: seed, Functions: 8, StmtsPerFn: 30, CallProb: 0.15,
			BranchProb: 0.2, LoopProb: 0.1, SafePatterns: 3, UnsafePatterns: 2}
		src := Generate(cfg)
		if _, err := minic.Parse(src); err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v", seed, err)
		}
	}
}

// The injected violation count is exactly what both engines find.
func TestViolationCountMatchesInjection(t *testing.T) {
	prop := spec.MustCompile(privilegeSpec)
	for _, unsafeN := range []int{0, 1, 3} {
		cfg := Config{Seed: 11, Functions: 6, StmtsPerFn: 25, CallProb: 0.15,
			BranchProb: 0.15, LoopProb: 0.05, SafePatterns: 3, UnsafePatterns: unsafeN}
		prog, err := minic.Parse(Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdm.Check(prog, prop, minic.PrivilegeEvents(), "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations()) != unsafeN {
			t.Errorf("unsafe=%d: constraint engine found %d violations", unsafeN, len(res.Violations()))
		}
		mres, err := mops.Check(prog, prop, minic.PrivilegeEvents(), "")
		if err != nil {
			t.Fatal(err)
		}
		if mres.Violating != (unsafeN > 0) {
			t.Errorf("unsafe=%d: mops verdict %v", unsafeN, mres.Violating)
		}
	}
}

// Differential fuzzing across seeds: engines agree on the verdict.
func TestEnginesAgreeAcrossSeeds(t *testing.T) {
	prop := spec.MustCompile(privilegeSpec)
	for seed := int64(100); seed < 112; seed++ {
		cfg := Config{Seed: seed, Functions: 5, StmtsPerFn: 15, CallProb: 0.2,
			BranchProb: 0.25, LoopProb: 0.1, SafePatterns: 2,
			UnsafePatterns: int(seed % 3)}
		prog, err := minic.Parse(Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdm.Check(prog, prop, minic.PrivilegeEvents(), "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mres, err := mops.Check(prog, prop, minic.PrivilegeEvents(), "")
		if err != nil {
			t.Fatal(err)
		}
		if (len(res.Violations()) > 0) != mres.Violating {
			t.Errorf("seed %d: engines disagree (pdm %d, mops %v)",
				seed, len(res.Violations()), mres.Violating)
		}
	}
}

func TestTable1Configs(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	wantNames := []string{"VixieCron 3.0.1", "At 3.1.8", "Sendmail 8.12.8", "Apache 2.0.40"}
	wantLines := []int{4000, 6000, 222000, 229000}
	wantProgs := []int{2, 2, 1, 1}
	for i, r := range rows {
		if r.Name != wantNames[i] || r.Lines != wantLines[i] || r.Programs != wantProgs[i] {
			t.Errorf("row %d = %s/%d/%d", i, r.Name, r.Lines, r.Programs)
		}
		// Generated size is in the right ballpark (±50% of lines/programs).
		src := Generate(r.Config)
		lines := strings.Count(src, "\n")
		per := r.Lines / r.Programs
		if lines < per/2 || lines > per*2 {
			t.Errorf("%s: generated %d lines, target %d", r.Name, lines, per)
		}
	}
}

// With the full (11-state) Table 1 property, the two engines agree on the
// verdict across seeds.
func TestEnginesAgreeFullProperty(t *testing.T) {
	prop := pdm.FullPrivilegeProperty()
	events := pdm.FullPrivilegeEvents()
	for seed := int64(200); seed < 210; seed++ {
		cfg := Config{Seed: seed, Functions: 6, StmtsPerFn: 20, CallProb: 0.15,
			BranchProb: 0.2, LoopProb: 0.08, SafePatterns: 2,
			UnsafePatterns: int(seed % 2), FullProperty: true}
		prog, err := minic.Parse(Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdm.Check(prog, prop, events, "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mres, err := mops.Check(prog, prop, events, "")
		if err != nil {
			t.Fatal(err)
		}
		if (len(res.Violations()) > 0) != mres.Violating {
			t.Errorf("seed %d: engines disagree (pdm %d, mops %v)",
				seed, len(res.Violations()), mres.Violating)
		}
	}
}

func TestGenerateTaintParsesAndChecks(t *testing.T) {
	src := GenerateTaint(TaintConfig{Seed: 3, Functions: 5, StmtsPerFn: 12, CallProb: 0.2,
		Tainted: 3, Cleaned: 2})
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := bitvector.CheckIterative(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bitvector.Check(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All taint patterns are within single functions; reachability from
	// main does not matter for the constraint engine? It does — only
	// functions on the guaranteed chain are analyzed from pc. The
	// iterative baseline analyzes everything reachable too, so the two
	// must agree.
	if len(iter.Violations) != len(res.Violations()) {
		t.Errorf("iterative %d vs constraints %d violations",
			len(iter.Violations), len(res.Violations()))
	}
}
