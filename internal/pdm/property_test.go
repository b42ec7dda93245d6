package pdm

import (
	"testing"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
)

// The Table 1 property: 11 states, 9 symbols (§8: MOPS Property 1 has 11
// states and 9 alphabet symbols; the paper measured 58 representative
// functions for its automaton — our reconstruction's |F^≡| is recorded in
// EXPERIMENTS.md).
func TestFullPrivilegePropertyShape(t *testing.T) {
	p := FullPrivilegeProperty()
	if got := p.Machine.NumStates; got != 11 {
		t.Errorf("states = %d, want 11", got)
	}
	if got := p.Machine.Alpha.Size(); got != 9 {
		t.Errorf("alphabet = %d, want 9", got)
	}
	if !p.IsMinimal() {
		t.Error("the full privilege machine should be minimal")
	}
	// Far from the |S|^|S| worst case of §4, like the paper's 58.
	if p.Mon.Size() > 2000 {
		t.Errorf("|F^≡| = %d, unexpectedly large", p.Mon.Size())
	}
	t.Logf("full privilege property: |S|=%d, |Σ|=%d, |F^≡|=%d",
		p.Machine.NumStates, p.Machine.Alpha.Size(), p.Mon.Size())
}

func TestFullPrivilegeSemantics(t *testing.T) {
	m := FullPrivilegeProperty().Machine
	cases := []struct {
		word []string
		want bool
	}{
		// exec before establishing uids: conservatively flagged.
		{[]string{"exec"}, true},
		// classic temporary drop, groups kept: still dangerous.
		{[]string{"seteuid_zero", "seteuid_nonzero", "exec"}, true},
		// permanent drop then exec: safe.
		{[]string{"setresuid_nonzero", "exec"}, false},
		{[]string{"setreuid_nonzero", "exec"}, false},
		// groups dropped and euid dropped, saved uid root: safe-ish (EUG/TDG).
		{[]string{"seteuid_zero", "setgroups", "seteuid_nonzero", "exec"}, false},
		// ...but regaining root afterwards and exec'ing is flagged.
		{[]string{"seteuid_zero", "setgroups", "seteuid_nonzero", "seteuid_zero", "exec"}, true},
		// setuid(0) from EU succeeds via ruid: flagged.
		{[]string{"setuid_zero", "setgroups", "seteuid_nonzero", "setuid_zero", "exec"}, true},
		// full drop is permanent: regaining fails.
		{[]string{"setresuid_nonzero", "seteuid_zero", "exec"}, false},
		// fork is a no-op.
		{[]string{"fork", "exec"}, true},
		{[]string{"setresuid_nonzero", "fork", "exec"}, false},
	}
	for _, c := range cases {
		if got := m.AcceptsNames(c.word...); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.word, got, c.want)
		}
	}
}

// End-to-end with the full property: both engines on characteristic
// programs.
func TestFullPropertyEndToEnd(t *testing.T) {
	prop := FullPrivilegeProperty()
	events := FullPrivilegeEvents()
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"temp drop insufficient", `
void main() {
    seteuid(0);
    seteuid(getuid());
    execl("/bin/sh", "sh");
}`, true},
		{"full drop safe", `
void main() {
    setgroups(0);
    setresuid(u, u, u);
    execl("/bin/sh", "sh");
}`, false},
		{"drop on one branch only", `
void main() {
    if (c) {
        setresuid(u, u, u);
    }
    execl("/bin/sh", "sh");
}`, true},
		{"drop in callee", `
void droppriv() {
    setresuid(u, u, u);
}
void main() {
    droppriv();
    execl("/bin/sh", "sh");
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
				t.Errorf("pdm verdict = %v, want %v", got, c.want)
			}
			mres, err := mops.Check(prog, prop, events, "")
			if err != nil {
				t.Fatal(err)
			}
			if mres.Violating != c.want {
				t.Errorf("mops verdict = %v, want %v", mres.Violating, c.want)
			}
		})
	}
}
