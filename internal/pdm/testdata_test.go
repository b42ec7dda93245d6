package pdm

import (
	"os"
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/spec"
)

func TestSection63Fixture(t *testing.T) {
	src, err := os.ReadFile("testdata/section63.c")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, SimplePrivilegeProperty(), minic.PrivilegeEvents(), "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations()) != 1 {
		t.Fatalf("got %d violations, want 1", len(res.Violations()))
	}
	v := res.Violations()[0]
	if v.Fn != "main" || v.Line != 9 {
		t.Errorf("violation at %s:%d, want main:9 (the execl)", v.Fn, v.Line)
	}
}

func TestFileStateFixture(t *testing.T) {
	src, err := os.ReadFile("testdata/filestate.c")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := spec.Compile(`
start state Closed :
    | open(x) -> Opened;
accept state Opened :
    | close(x) -> Closed;
`, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, prop, minic.FileEvents(), "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := res.OpenInstancesAtExit("")
	if len(open) != 1 || open[0] != "fd2" {
		t.Fatalf("open at exit = %v, want [fd2]", open)
	}
}
