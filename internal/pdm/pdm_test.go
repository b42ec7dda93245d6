package pdm

import (
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
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

const fileSpec = `
start state Closed :
    | open(x) -> Opened;

accept state Opened :
    | close(x) -> Closed;
`

func check(t *testing.T, src, propSrc string, events *minic.EventMap) *Result {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := spec.Compile(propSrc, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, prop, events, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// §6.3: privileges dropped on only one branch — a violation.
func TestSection63Violation(t *testing.T) {
	src := `
void main() {
    seteuid(0);
    if (cond) {
        seteuid(getuid());
    } else {
        other();
    }
    execl("/bin/sh", "sh");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(res.Violations()), res.Violations())
	}
	v := res.Violations()[0]
	if v.Fn != "main" {
		t.Errorf("violation in %q, want main", v.Fn)
	}
	if len(v.Trace) == 0 {
		t.Error("violation should carry a witness trace")
	}
}

// The §6 motivating example: no drop at all before execl.
func TestSimpleViolation(t *testing.T) {
	src := `
void main() {
    seteuid(0);
    execl("/bin/sh", "sh", 0);
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations()))
	}
}

func TestSafeProgram(t *testing.T) {
	src := `
void main() {
    seteuid(0);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 0 {
		t.Fatalf("safe program flagged: %v", res.Violations())
	}
}

// Interprocedural: the privileged exec happens in a callee; matching
// call/return must carry the automaton state through.
func TestInterproceduralViolation(t *testing.T) {
	src := `
void runshell() {
    execl("/bin/sh", "sh");
}
void main() {
    seteuid(0);
    runshell();
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations()))
	}
	if res.Violations()[0].Fn != "runshell" {
		t.Errorf("violation located in %q, want runshell", res.Violations()[0].Fn)
	}
}

// Interprocedural, safe: the callee drops privileges and the drop must be
// visible after the matched return.
func TestInterproceduralDropIsMatched(t *testing.T) {
	src := `
void droppriv() {
    seteuid(getuid());
}
void main() {
    seteuid(0);
    droppriv();
    execl("/bin/sh", "sh");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 0 {
		t.Fatalf("matched return lost the privilege drop: %v", res.Violations())
	}
}

// Context sensitivity: the same helper is called in privileged and
// unprivileged contexts; only the privileged call's continuation may
// violate. An imprecise (context-insensitive) analysis would merge the
// two calls and flag line 9 as reachable in state Priv even in the first
// call — here there is a genuine violation only after the second call.
func TestContextSensitivityOfReturns(t *testing.T) {
	src := `
void helper() {
    noop();
}
void main() {
    helper();
    execl("/bin/a", "a");
    seteuid(0);
    helper();
    execl("/bin/b", "b");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want exactly 1 (second execl): %v", len(res.Violations()), res.Violations())
	}
	if res.Violations()[0].Line != 10 {
		t.Errorf("violation at line %d, want 10", res.Violations()[0].Line)
	}
}

// A callee that never returns (infinite loop) still propagates the
// program counter into its body: PN reachability's unmatched-call paths.
func TestUnreturnedCallViolation(t *testing.T) {
	src := `
void spin() {
    execl("/bin/sh", "sh");
    while (1) {
        noop();
    }
}
void main() {
    seteuid(0);
    spin();
    never();
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations()))
	}
	if res.Violations()[0].Fn != "spin" {
		t.Errorf("violation in %q, want spin", res.Violations()[0].Fn)
	}
}

// Recursion must terminate and find the violation.
func TestRecursion(t *testing.T) {
	src := `
void rec(int n) {
    if (n) {
        rec(n - 1);
    }
    execl("/bin/sh", "sh");
}
void main() {
    seteuid(0);
    rec(3);
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) == 0 {
		t.Fatal("recursion hid the violation")
	}
}

// Loops: drop inside a loop body that may execute zero times.
func TestLoopMayNotExecute(t *testing.T) {
	src := `
void main() {
    seteuid(0);
    while (cond) {
        seteuid(getuid());
    }
    execl("/bin/sh", "sh");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1 (zero-iteration path)", len(res.Violations()))
	}
}

// Re-acquiring privilege inside a loop after dropping: the gk-style
// cycling must saturate, and the violating g-then-exec path must be found.
func TestLoopReacquire(t *testing.T) {
	src := `
void main() {
    while (c) {
        seteuid(0);
        seteuid(getuid());
    }
    seteuid(0);
    execl("/bin/sh", "sh");
}
`
	res := check(t, src, privilegeSpec, minic.PrivilegeEvents())
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations()))
	}
}

// §6.4.1 (Figure 6): parametric file tracking — fd2 remains open at the
// end of the program, fd1 does not.
func TestFileStateExample(t *testing.T) {
	src := `
void main() {
    int fd1 = open("file1", O_RDONLY);
    int fd2 = open("file2", O_RDONLY);
    close(fd1);
}
`
	res := check(t, src, fileSpec, minic.FileEvents())
	open := res.OpenInstancesAtExit("")
	if len(open) != 1 || open[0] != "fd2" {
		t.Fatalf("open at exit = %v, want [fd2]", open)
	}
}

func TestFileStateAllClosed(t *testing.T) {
	src := `
void main() {
    int fd1 = open("file1", O_RDONLY);
    close(fd1);
}
`
	res := check(t, src, fileSpec, minic.FileEvents())
	if open := res.OpenInstancesAtExit(""); len(open) != 0 {
		t.Fatalf("open at exit = %v, want none", open)
	}
}

// Parametric tracking across branches: fd may be closed on one branch
// only, so it is still (possibly) open at exit.
func TestFileStateBranch(t *testing.T) {
	src := `
void main() {
    int fd = open("f", O_RDONLY);
    if (c) {
        close(fd);
    }
    done();
}
`
	res := check(t, src, fileSpec, minic.FileEvents())
	if open := res.OpenInstancesAtExit(""); len(open) != 1 || open[0] != "fd" {
		t.Fatalf("open at exit = %v, want [fd]", open)
	}
}

func TestMissingEntry(t *testing.T) {
	prog := minic.MustParse("void notmain() { f(); }")
	prop := spec.MustCompile(privilegeSpec)
	if _, err := Check(prog, prop, minic.PrivilegeEvents(), "", core.Options{}); err == nil {
		t.Error("missing main should error")
	}
	if _, err := Check(prog, prop, minic.PrivilegeEvents(), "notmain", core.Options{}); err != nil {
		t.Errorf("explicit entry should work: %v", err)
	}
}

func TestUnknownEventSymbol(t *testing.T) {
	prog := minic.MustParse("void main() { boom(); }")
	prop := spec.MustCompile(privilegeSpec)
	events := &minic.EventMap{Rules: []minic.Rule{{Callee: "boom", ArgIndex: -1, Symbol: "not_in_alphabet"}}}
	if _, err := Check(prog, prop, events, "", core.Options{}); err == nil {
		t.Error("unknown symbol should error")
	}
}

// The solver options must not change the verdict.
func TestOptionsPreserveVerdict(t *testing.T) {
	src := `
void helper() { seteuid(getuid()); }
void main() {
    seteuid(0);
    if (x) { helper(); }
    execl("/bin/sh", "sh");
}
`
	prog := minic.MustParse(src)
	prop := spec.MustCompile(privilegeSpec)
	var counts []int
	for _, opts := range []core.Options{
		{},
		{NoCycleElim: true},
		{NoProjMerge: true},
		{NoHashCons: true},
		{NoCycleElim: true, NoProjMerge: true, NoHashCons: true},
	} {
		res, err := Check(prog, prop, minic.PrivilegeEvents(), "", opts)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Violations()))
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("verdicts differ across options: %v", counts)
		}
	}
	if counts[0] != 1 {
		t.Fatalf("want 1 violation, got %d", counts[0])
	}
}

// The full C control flow (for/break/continue/switch) feeds the checker.
func TestControlFlowConstructs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"break skips the drop", `
void main() {
    seteuid(0);
    for (int i = 0; i < 10; i = i + 1) {
        if (c) {
            break;
        }
        seteuid(getuid());
    }
    execl("/bin/sh", "sh");
}`, 1},
		{"do-while drops at least once", `
void main() {
    seteuid(0);
    do {
        seteuid(getuid());
    } while (c);
    execl("/bin/sh", "sh");
}`, 0},
		{"switch with default drops on all paths", `
void main() {
    seteuid(0);
    switch (x) {
    case 1:
        log1();
    case 2:
        seteuid(getuid());
        break;
    default:
        seteuid(getuid());
    }
    execl("/bin/sh", "sh");
}`, 0},
		{"switch without default can skip the drop", `
void main() {
    seteuid(0);
    switch (x) {
    case 1:
        seteuid(getuid());
        break;
    }
    execl("/bin/sh", "sh");
}`, 1},
		{"continue skips the drop", `
void main() {
    seteuid(0);
    int done = 0;
    while (done == 0) {
        done = check();
        if (done) {
            continue;
        }
        seteuid(getuid());
    }
    execl("/bin/sh", "sh");
}`, 1},
	}
	prop := SimplePrivilegeProperty()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Check(minic.MustParse(c.src), prop, minic.PrivilegeEvents(), "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations()) != c.want {
				t.Errorf("got %d violations, want %d: %v", len(res.Violations()), c.want, res.Violations())
			}
		})
	}
}

// DangerPoints: the §6.3 program's violating path runs through the else
// branch; the seteuid(getuid()) drop is NOT on any violating path.
func TestDangerPoints(t *testing.T) {
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
	lines, err := DangerLines(prog, SimplePrivilegeProperty(), minic.PrivilegeEvents(), "main")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{3: true, 7: true, 9: true} // seteuid(0), log_attempt, execl
	for _, l := range lines {
		if !want[l] {
			t.Errorf("line %d flagged but not on a violating path", l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("line %d should be on the violating path", l)
	}

	// A safe program has no danger points at all.
	safe := minic.MustParse(`
void main() {
    seteuid(0);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}
`)
	ids, err := DangerPoints(safe, SimplePrivilegeProperty(), minic.PrivilegeEvents(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("safe program has danger points: %v", ids)
	}
}

func TestDangerPointsErrors(t *testing.T) {
	prog := minic.MustParse("void main() { f(); }")
	if _, err := DangerPoints(prog, SimplePrivilegeProperty(), minic.PrivilegeEvents(), "nosuch"); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := DangerPoints(prog, TempFileProperty(), TempFileEvents(), "main"); err == nil {
		t.Error("parametric property should be rejected")
	}
}
