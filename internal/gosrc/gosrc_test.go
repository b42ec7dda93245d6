package gosrc

import (
	"os"
	"testing"

	"rasc/internal/bitvector"
	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/pdm"
)

func TestTranslateBasics(t *testing.T) {
	prog, err := Translate(`
package p

func helper(x int) int { return work(x) }

func main() {
	helper(1)
	if cond() {
		a()
	} else {
		b()
	}
	for i := 0; i < 10; i++ {
		c()
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("got %d funcs", len(prog.Funcs))
	}
	if prog.ByName["helper"] == nil || prog.ByName["main"] == nil {
		t.Fatal("function names lost")
	}
	g := minic.MustBuild(prog)
	if g.NumActions() < 5 {
		t.Errorf("NumActions = %d", g.NumActions())
	}
}

func TestTranslateErrors(t *testing.T) {
	if _, err := Translate("not go at all {"); err == nil {
		t.Error("parse error expected")
	}
	if _, err := Translate("package p\nvar x = 1\n"); err == nil {
		t.Error("no function bodies should error")
	}
}

func TestDoubleLock(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"double lock", `
package p

func f() {
	mu.Lock()
	mu.Lock()
}`, 1},
		{"lock unlock lock", `
package p

func f() {
	mu.Lock()
	mu.Unlock()
	mu.Lock()
	mu.Unlock()
}`, 0},
		{"two mutexes are distinct", `
package p

func f() {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}`, 0},
		{"unlock of unlocked", `
package p

func f() {
	mu.Unlock()
}`, 1},
		{"conditional missing unlock then lock", `
package p

func f() {
	mu.Lock()
	if cond() {
		mu.Unlock()
	}
	mu.Lock()
}`, 1},
		{"defer unlock protects every return", `
package p

func f() int {
	mu.Lock()
	defer mu.Unlock()
	if cond() {
		return 1
	}
	return 2
}

func g() {
	f()
	f()
}`, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Check(c.src, DoubleLockProperty(), DoubleLockEvents(), "f", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations()) != c.want {
				t.Errorf("got %d violations, want %d: %v", len(res.Violations()), c.want, res.Violations())
			}
		})
	}
}

func TestDoubleLockInterprocedural(t *testing.T) {
	src := `
package p

func locked() {
	mu.Lock()
}

func main() {
	mu.Lock()
	locked()
}
`
	res, err := Check(src, DoubleLockProperty(), DoubleLockEvents(), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 1 {
		t.Errorf("interprocedural double lock missed: %v", res.Violations())
	}
}

func TestFileLeak(t *testing.T) {
	src := `
package p

func main() {
	f, err := os.Open("a.txt")
	if err != nil {
		return
	}
	g, _ := os.Open("b.txt")
	g.Close()
	use(f)
}
`
	res, err := Check(src, FileLeakProperty(), FileLeakEvents(), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := res.OpenInstancesAtExit("main")
	if len(open) != 1 || open[0] != "f" {
		t.Errorf("open at exit = %v, want [f]", open)
	}
	// With a deferred close, nothing leaks.
	src2 := `
package p

func main() {
	f, err := os.Open("a.txt")
	if err != nil {
		return
	}
	defer f.Close()
	use(f)
}
`
	res2, err := Check(src2, FileLeakProperty(), FileLeakEvents(), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The error-return path happens before the defer is registered, and f
	// was opened there... os.Open failing means no file; our name-based
	// abstraction still sees open(f) before the return. Accept either 0
	// or the false positive on the err path, but the happy path must not
	// leak: check by counting ≤ 1.
	if got := res2.OpenInstancesAtExit("main"); len(got) > 1 {
		t.Errorf("open at exit = %v", got)
	}
}

func TestGoSwitchImplicitBreak(t *testing.T) {
	// Go switch does NOT fall through: the drop in case 1 does not leak
	// into case 2's path, so a violation exists (case 2 execs while
	// privileged)... modeled with the privilege property.
	src := `
package p

func main() {
	seteuid(0)
	switch kind() {
	case 1:
		seteuid(getuid())
	case 2:
		noop()
	}
	execl("/bin/sh")
}
`
	prog := MustTranslate(src)
	res, err := pdmCheck(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 1 {
		t.Errorf("got %d violations, want 1 (case-2 and no-case paths stay privileged)", len(res.Violations()))
	}
	// With explicit fallthrough from case 1 to 2, case 1's path is safe
	// (drops then falls into case 2); still violating via case 2 directly.
	src2 := `
package p

func main() {
	seteuid(0)
	switch kind() {
	case 1:
		seteuid(getuid())
		fallthrough
	case 2:
		noop()
	default:
		seteuid(getuid())
	}
	execl("/bin/sh")
}
`
	res2, err := pdmCheck(MustTranslate(src2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Violations()) != 1 {
		t.Errorf("fallthrough case: got %d violations, want 1", len(res2.Violations()))
	}
}

func pdmCheck(prog *minic.Program) (*pdm.Result, error) {
	return pdm.Check(prog, pdm.SimplePrivilegeProperty(), minic.PrivilegeEvents(), "main", core.Options{})
}

func TestLocksFixture(t *testing.T) {
	src, err := os.ReadFile("testdata/locks.go.src")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(string(src), DoubleLockProperty(), DoubleLockEvents(), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(res.Violations()), res.Violations())
	}
	v := res.Violations()[0]
	if v.Label != "mu" || v.Line != 18 {
		t.Errorf("violation = %+v, want mu at line 18", v)
	}
}

// Taint analysis over Go source, via the same translation.
func TestGoTaint(t *testing.T) {
	src := `
package p

func sanitizeAll(v int) {
	sanitize(v)
}

func main() {
	v := source()
	w := source()
	sanitizeAll(v)
	sink(v)
	sink(w)
}
`
	res, err := Check(src, bitvector.TaintProperty(), bitvector.TaintEvents(), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 1 || res.Violations()[0].Label != "w" {
		t.Errorf("violations = %v, want exactly w", res.Violations())
	}
}
