package pdm

import (
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// §2.2: "it is sufficient to deal only with a single machine representing
// the product of all the regular reachability properties" — check two
// safety properties simultaneously with one solved constraint system.
func TestSimultaneousProperties(t *testing.T) {
	priv := spec.MustCompile(`
start state Unpriv :
    | seteuid_zero -> Priv;
state Priv :
    | seteuid_nonzero -> Unpriv
    | execl -> Error;
accept state Error;
`)
	chroot := spec.MustCompile(`
start state Clean :
    | chroot -> Rooted;
state Rooted :
    | chdir -> Clean
    | execl -> Error;
accept state Error;
`)
	combined, err := spec.Union(spec.Options{}, priv, chroot)
	if err != nil {
		t.Fatal(err)
	}
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "seteuid", ArgIndex: 0, Equals: "0", Symbol: "seteuid_zero"},
		{Callee: "seteuid", ArgIndex: 0, NotEquals: "0", Symbol: "seteuid_nonzero"},
		{Callee: "execl", ArgIndex: -1, Symbol: "execl"},
		{Callee: "chroot", ArgIndex: -1, Symbol: "chroot"},
		{Callee: "chdir", ArgIndex: -1, Symbol: "chdir"},
	}}

	cases := []struct {
		name string
		src  string
		want int
	}{
		{"violates privilege only", `
void main() {
    chroot("/jail");
    chdir("/");
    seteuid(0);
    execl("/bin/sh", "sh");
}`, 1},
		{"violates chroot only", `
void main() {
    seteuid(0);
    seteuid(getuid());
    chroot("/jail");
    execl("/bin/sh", "sh");
}`, 1},
		{"violates both with one exec", `
void main() {
    seteuid(0);
    chroot("/jail");
    execl("/bin/sh", "sh");
}`, 1},
		{"violates neither", `
void main() {
    seteuid(0);
    seteuid(getuid());
    chroot("/jail");
    chdir("/");
    execl("/bin/sh", "sh");
}`, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Check(minic.MustParse(c.src), combined, events, "", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations()) != c.want {
				t.Errorf("got %d violations, want %d: %v", len(res.Violations()), c.want, res.Violations())
			}
		})
	}
}
