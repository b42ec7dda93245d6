package bitvector

import (
	"math"
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/monoid"
)

// §3.3: the n-bit machine's monoid has 3^n representative functions —
// each bit independently ε, gen or kill; composition exploits order
// independence of distinct bits automatically.
func TestMonoidIsThreeToTheN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		m, err := monoid.Build(Machine(n), 1<<20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int(math.Pow(3, float64(n)))
		if m.Size() != want {
			t.Errorf("n=%d: |F^≡| = %d, want %d", n, m.Size(), want)
		}
	}
}

// Order independence (§4): g1·g2 ≡ g2·g1 for distinct bits.
func TestOrderIndependence(t *testing.T) {
	m, err := monoid.Build(Machine(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := m.SymbolFuncByName(GenSym(0))
	g2, _ := m.SymbolFuncByName(GenSym(1))
	k1, _ := m.SymbolFuncByName(KillSym(0))
	if m.Then(g1, g2) != m.Then(g2, g1) {
		t.Error("distinct-bit gens must commute")
	}
	if m.Then(g1, k1) == m.Then(k1, g1) {
		t.Error("same-bit gen/kill must NOT commute")
	}
}

func TestOneBitMatchesFigure1(t *testing.T) {
	d := OneBit()
	if d.NumStates != 2 {
		t.Fatalf("states = %d, want 2", d.NumStates)
	}
	if !d.AcceptsNames("g0") || d.AcceptsNames("g0", "k0") || !d.AcceptsNames("k0", "g0") {
		t.Error("1-bit language wrong")
	}
}

func bothCheck(t *testing.T, src string) (*IterResult, []string) {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := CheckIterative(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cons []string
	for _, v := range res.Violations() {
		cons = append(cons, v.Label)
	}
	return iter, cons
}

func TestTaintStraightLine(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    sink(p);
}
`)
	if len(iter.Violations) != 1 || iter.Violations[0].Label != "p" {
		t.Errorf("iterative = %+v, want one violation on p", iter.Violations)
	}
	if len(cons) != 1 || cons[0] != "p" {
		t.Errorf("constraints = %v, want [p]", cons)
	}
}

func TestTaintSanitized(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    sanitize(p);
    sink(p);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative flagged sanitized use: %+v", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints flagged sanitized use: %v", cons)
	}
}

func TestTaintPerVariable(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    int q = source();
    sanitize(p);
    sink(p);
    sink(q);
}
`)
	if len(iter.Violations) != 1 || iter.Violations[0].Label != "q" {
		t.Errorf("iterative = %+v, want [q]", iter.Violations)
	}
	if len(cons) != 1 || cons[0] != "q" {
		t.Errorf("constraints = %v, want [q]", cons)
	}
}

func TestTaintBranch(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int p = source();
    if (c) {
        sanitize(p);
    }
    sink(p);
}
`)
	// May-analysis: the unsanitized path exists.
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintInterprocedural(t *testing.T) {
	iter, cons := bothCheck(t, `
void clean(int v) {
    sanitize(v);
}
void main() {
    int v = source();
    clean(v);
    sink(v);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative missed the interprocedural sanitize: %+v", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints missed the interprocedural sanitize: %v", cons)
	}
}

// Summaries must be context-sensitive: a callee that does nothing to the
// fact must not conflate its two callers.
func TestTaintContextSensitivity(t *testing.T) {
	iter, cons := bothCheck(t, `
void nop(int x) {
    noop(x);
}
void main() {
    int a = source();
    nop(a);
    sanitize(a);
    nop(a);
    sink(a);
}
`)
	if len(iter.Violations) != 0 {
		t.Errorf("iterative = %+v, want none", iter.Violations)
	}
	if len(cons) != 0 {
		t.Errorf("constraints = %v, want none", cons)
	}
}

func TestTaintUseInsideCallee(t *testing.T) {
	iter, cons := bothCheck(t, `
void consume(int v) {
    sink(v);
}
void main() {
    int v = source();
    consume(v);
}
`)
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintRecursionTerminates(t *testing.T) {
	iter, cons := bothCheck(t, `
void loop(int n) {
    if (n) {
        loop(n - 1);
    }
}
void main() {
    int v = source();
    loop(3);
    sink(v);
}
`)
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestTaintLoopRegen(t *testing.T) {
	iter, cons := bothCheck(t, `
void main() {
    int v = source();
    while (c) {
        sanitize(v);
        v = source();
    }
    sink(v);
}
`)
	// Both the zero-iteration path and the regenerated path taint v.
	if len(iter.Violations) != 1 {
		t.Errorf("iterative = %+v, want 1", iter.Violations)
	}
	if len(cons) != 1 {
		t.Errorf("constraints = %v, want 1", cons)
	}
}

func TestNoFacts(t *testing.T) {
	prog := minic.MustParse("void main() { puts(1); }")
	iter, err := CheckIterative(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(iter.Violations) != 0 {
		t.Error("no facts, no violations")
	}
}

func TestMachineBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Machine(0) should panic")
		}
	}()
	Machine(0)
}
