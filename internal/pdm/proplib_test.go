package pdm

import (
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
	"rasc/internal/spec"
)

func TestChrootProperty(t *testing.T) {
	prop := ChrootProperty()
	events := ChrootEvents()
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"chroot then open", `
void main() {
    chroot("/jail");
    open("etc/passwd", O_RDONLY);
}`, true},
		{"chroot chdir open", `
void main() {
    chroot("/jail");
    chdir("/");
    open("etc/passwd", O_RDONLY);
}`, false},
		{"chdir wrong dir does not clear", `
void main() {
    chroot("/jail");
    chdir("tmp");
    open("x", O_RDONLY);
}`, true},
		{"interprocedural chdir", `
void enter() {
    chroot("/jail");
    chdir("/");
}
void main() {
    enter();
    open("x", O_RDONLY);
}`, false},
		{"no chroot at all", `
void main() {
    open("x", O_RDONLY);
}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := minic.MustParse(c.src)
			res, err := Check(prog, prop, events, "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Violations()) > 0; got != c.want {
				t.Errorf("pdm = %v, want %v (%v)", got, c.want, res.Violations())
			}
			mres, err := mops.Check(prog, prop, events, "")
			if err != nil {
				t.Fatal(err)
			}
			if mres.Violating != c.want {
				t.Errorf("mops = %v, want %v", mres.Violating, c.want)
			}
		})
	}
}

func TestTempFileProperty(t *testing.T) {
	prop := TempFileProperty()
	events := TempFileEvents()
	cases := []struct {
		name  string
		src   string
		want  int
		label string
	}{
		{"racy open", `
void main() {
    int name = mktemp(template);
    open(name, O_RDWR);
}`, 1, "name"},
		{"exclusive open is fine", `
void main() {
    int name = mktemp(template);
    open(name, O_EXCL);
}`, 0, ""},
		{"unrelated open untouched", `
void main() {
    int name = mktemp(template);
    open(other, O_RDWR);
    open(name, O_EXCL);
}`, 0, ""},
		{"two names tracked separately", `
void main() {
    int a = mktemp(t1);
    int b = mktemp(t2);
    open(a, O_EXCL);
    open(b, O_RDWR);
}`, 1, "b"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Check(minic.MustParse(c.src), prop, events, "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations()) != c.want {
				t.Fatalf("got %d violations, want %d: %v", len(res.Violations()), c.want, res.Violations())
			}
			if c.want > 0 && res.Violations()[0].Label != c.label {
				t.Errorf("label = %q, want %q", res.Violations()[0].Label, c.label)
			}
		})
	}
}

// The chroot and privilege properties check simultaneously through the
// §2.2 product. One program event maps to one alphabet symbol, so the
// union's event map keeps the two properties' relevant calls disjoint
// (open is the chroot side's fsop; execl belongs to the privilege side).
func TestChrootPlusPrivilegeUnion(t *testing.T) {
	combined, err := spec.Union(spec.Options{}, SimplePrivilegeProperty(), ChrootProperty())
	if err != nil {
		t.Fatal(err)
	}
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "seteuid", ArgIndex: 0, Equals: "0", Symbol: "seteuid_zero"},
		{Callee: "seteuid", ArgIndex: 0, NotEquals: "0", Symbol: "seteuid_nonzero"},
		{Callee: "execl", ArgIndex: -1, Symbol: "execl"},
		{Callee: "chroot", ArgIndex: -1, Symbol: "chroot"},
		{Callee: "chdir", ArgIndex: 0, Equals: "\"/\"", Symbol: "chdir_root"},
		{Callee: "open", ArgIndex: -1, Symbol: "fsop"},
	}}

	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"jointly safe", `
void main() {
    seteuid(0);
    chroot("/jail");
    chdir("/");
    open("x", O_RDONLY);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}`, false},
		{"chroot side violated", `
void main() {
    seteuid(0);
    seteuid(getuid());
    chroot("/jail");
    open("x", O_RDONLY);
    execl("/bin/sh", "sh");
}`, true},
		{"privilege side violated", `
void main() {
    chroot("/jail");
    chdir("/");
    seteuid(0);
    execl("/bin/sh", "sh");
}`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Check(minic.MustParse(c.src), combined, events, "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Violations()) > 0; got != c.want {
				t.Errorf("got %v, want %v: %v", got, c.want, res.Violations())
			}
		})
	}
}
