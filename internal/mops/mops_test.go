package mops

import (
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
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

func mopsCheck(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := spec.Compile(privilegeSpec, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, prop, minic.PrivilegeEvents(), "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPostStarBasics(t *testing.T) {
	// One control state, symbols 0,1,2. Rules: <0,0> → <0,1 2> (push),
	// <0,1> → <0,ε> (pop). From <0, 0>: reachable configs include
	// <0, 0>, <0, 1·2>, <0, 2>.
	pds := &PDS{NumControls: 1, NumSymbols: 3}
	pds.AddPush(0, 0, 0, 1, 2)
	pds.AddPop(0, 1, 0)
	ps := NewPostStar(pds, 0, 0)
	if !ps.Reachable(0) {
		t.Fatal("control state 0 must be reachable")
	}
	tops := ps.TopSymbols(0)
	want := []int{0, 1, 2}
	if len(tops) != len(want) {
		t.Fatalf("tops = %v, want %v", tops, want)
	}
	for i := range want {
		if tops[i] != want[i] {
			t.Fatalf("tops = %v, want %v", tops, want)
		}
	}
}

func TestPostStarPopToEmpty(t *testing.T) {
	// <0,5> → <1,ε>: control 1 is reachable with the empty stack.
	pds := &PDS{NumControls: 2, NumSymbols: 6}
	pds.AddPop(0, 5, 1)
	ps := NewPostStar(pds, 0, 5)
	if !ps.Reachable(1) {
		t.Error("pop to empty stack should leave control 1 reachable")
	}
}

func TestPostStarUnreachable(t *testing.T) {
	pds := &PDS{NumControls: 2, NumSymbols: 2}
	pds.AddStep(0, 0, 0, 1)
	ps := NewPostStar(pds, 0, 0)
	if ps.Reachable(1) {
		t.Error("control 1 has no rules reaching it")
	}
}

func TestViolationDetection(t *testing.T) {
	res := mopsCheck(t, `
void main() {
    seteuid(0);
    execl("/bin/sh", "sh");
}
`)
	if !res.Violating {
		t.Fatal("violation missed")
	}
	if len(res.ErrorNodes) == 0 {
		t.Error("error nodes missing")
	}
}

func TestSafeProgram(t *testing.T) {
	res := mopsCheck(t, `
void main() {
    seteuid(0);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}
`)
	if res.Violating {
		t.Fatal("safe program flagged")
	}
}

func TestParametricRejected(t *testing.T) {
	prog := minic.MustParse("void main() { f(); }")
	prop := spec.MustCompile(`
start state Closed :
    | open(x) -> Opened;
accept state Opened :
    | close(x) -> Closed;
`)
	if _, err := Check(prog, prop, minic.FileEvents(), ""); err == nil {
		t.Error("parametric property should be rejected")
	}
}

// Differential test: the constraint engine (pdm) and the post* engine
// agree on the verdict across a corpus of programs, including
// interprocedural, recursive and non-returning cases.
func TestAgreesWithConstraintEngine(t *testing.T) {
	corpus := []struct {
		name string
		src  string
		want bool
	}{
		{"straight violation", `
void main() { seteuid(0); execl("/bin/sh", "sh"); }`, true},
		{"straight safe", `
void main() { seteuid(0); seteuid(getuid()); execl("/bin/sh", "sh"); }`, false},
		{"branch violation", `
void main() {
    seteuid(0);
    if (c) { seteuid(getuid()); } else { other(); }
    execl("/bin/sh", "sh");
}`, true},
		{"branch safe", `
void main() {
    seteuid(0);
    if (c) { seteuid(getuid()); } else { seteuid(1); }
    execl("/bin/sh", "sh");
}`, false},
		{"interprocedural violation", `
void shell() { execl("/bin/sh", "sh"); }
void main() { seteuid(0); shell(); }`, true},
		{"interprocedural safe", `
void drop() { seteuid(getuid()); }
void main() { seteuid(0); drop(); execl("/bin/sh", "sh"); }`, false},
		{"context sensitive", `
void helper() { noop(); }
void main() {
    helper();
    execl("/bin/a", "a");
    seteuid(0);
    helper();
}`, false},
		{"recursive violation", `
void rec(int n) { if (n) { rec(n-1); } execl("/bin/sh", "sh"); }
void main() { seteuid(0); rec(3); }`, true},
		{"loop zero iterations", `
void main() {
    seteuid(0);
    while (c) { seteuid(getuid()); }
    execl("/bin/sh", "sh");
}`, true},
		{"unreturned callee", `
void spin() { execl("/bin/sh", "sh"); while (1) { noop(); } }
void main() { seteuid(0); spin(); }`, true},
		{"no events at all", `
void main() { puts("hello"); }`, false},
	}
	prop := spec.MustCompile(privilegeSpec)
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			prog, err := minic.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := Check(prog, prop, minic.PrivilegeEvents(), "")
			if err != nil {
				t.Fatal(err)
			}
			pres, err := pdm.Check(prog, prop, minic.PrivilegeEvents(), "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if mres.Violating != c.want {
				t.Errorf("mops verdict = %v, want %v", mres.Violating, c.want)
			}
			if got := len(pres.Violations()) > 0; got != c.want {
				t.Errorf("pdm verdict = %v, want %v", got, c.want)
			}
		})
	}
}

// The interprocedural chop: post* ∩ pre* marks exactly the statements on
// violating runs. On a single-function program it must agree with
// pdm.DangerPoints; across calls it is strictly more informative.
func TestChopLines(t *testing.T) {
	prop := spec.MustCompile(privilegeSpec)
	src := `
void main() {
    seteuid(0);
    if (cond) {
        seteuid(getuid());
    } else {
        log_attempt();
    }
    execl("/bin/sh", "sh");
}
`
	prog := minic.MustParse(src)
	lines, err := ChopLines(prog, prop, minic.PrivilegeEvents(), "")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 7, 9} // seteuid(0), log_attempt, execl — not the drop
	if len(lines) != len(want) {
		t.Fatalf("chop = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("chop = %v, want %v", lines, want)
		}
	}
	// Agrees with the constraint engine's intraprocedural chop.
	plines, err := pdm.DangerLines(prog, prop, minic.PrivilegeEvents(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(plines) != len(lines) {
		t.Fatalf("pdm chop %v vs mops chop %v", plines, lines)
	}
	for i := range lines {
		if plines[i] != lines[i] {
			t.Fatalf("pdm chop %v vs mops chop %v", plines, lines)
		}
	}
}

// Interprocedural chop: every statement of the violating run is marked,
// including those inside helpers the run passes through; statements only
// on safe branches are not.
func TestChopLinesInterprocedural(t *testing.T) {
	prop := spec.MustCompile(privilegeSpec)
	src := `
void cleanup() {
    puts("cleaned");
}
void main() {
    seteuid(0);
    if (c) {
        seteuid(getuid());
        cleanup();
        execl("/bin/a", "a");
    } else {
        execl("/bin/sh", "sh");
    }
}
`
	prog := minic.MustParse(src)
	lines, err := ChopLines(prog, prop, minic.PrivilegeEvents(), "")
	if err != nil {
		t.Fatal(err)
	}
	has := map[int]bool{}
	for _, l := range lines {
		has[l] = true
	}
	// The violating run: seteuid(0) at 6, execl at 12.
	if !has[6] || !has[12] {
		t.Errorf("chop %v should include lines 6 and 12", lines)
	}
	// The dropped branch (8,9,10) and cleanup's body (3) are safe.
	for _, l := range []int{3, 8, 9, 10} {
		if has[l] {
			t.Errorf("chop %v must not include safe line %d", lines, l)
		}
	}
	// A helper ON the violating run IS included.
	src2 := `
void danger() {
    execl("/bin/sh", "sh");
}
void main() {
    seteuid(0);
    danger();
}
`
	lines2, err := ChopLines(minic.MustParse(src2), prop, minic.PrivilegeEvents(), "")
	if err != nil {
		t.Fatal(err)
	}
	has2 := map[int]bool{}
	for _, l := range lines2 {
		has2[l] = true
	}
	if !has2[3] || !has2[6] || !has2[7] {
		t.Errorf("chop %v should include 3, 6 and 7", lines2)
	}
	// Safe program: empty chop.
	safe := minic.MustParse(`
void main() {
    seteuid(0);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}
`)
	lines3, err := ChopLines(safe, prop, minic.PrivilegeEvents(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines3) != 0 {
		t.Errorf("safe chop = %v, want empty", lines3)
	}
}

func TestPreStarBasics(t *testing.T) {
	// <0,a> → <1,ε>: config <0, a w> is in pre*(control 1) for any w;
	// config <0, b> is not.
	pds := &PDS{NumControls: 2, NumSymbols: 2}
	pds.AddPop(0, 0, 1)
	pre := NewPreStar(pds, 1)
	if !pre.InPre(0, []int{0}) {
		t.Error("<0,a> pops straight to control 1")
	}
	if !pre.InPre(0, []int{0, 1}) {
		t.Error("<0,a b> reaches control 1 with b left")
	}
	if pre.InPre(0, []int{1}) {
		t.Error("<0,b> has no rule")
	}
	if !pre.InPre(1, []int{1, 1}) {
		t.Error("the target with any stack is trivially in pre*")
	}
}
