// Privilege: the §6.3 pushdown model checking example. A setuid program
// acquires root, drops privilege on only one branch, and then execs a
// shell — the classic bug MOPS was built to find. We check it with the
// constraint engine and with the baseline post* checker, then fix it and
// check again.
package main

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/mops"
	"rasc/internal/pdm"
)

const buggy = `
void main() {
    seteuid(0);                // s1: acquire privilege
    if (cond) {
        seteuid(getuid());     // s3: drop privilege (one branch only!)
    } else {
        log_attempt();         // s4
    }
    execl("/bin/sh", "sh");    // s5: exec — privileged on the else path
}
`

const fixed = `
void main() {
    seteuid(0);
    if (cond) {
        seteuid(getuid());
    } else {
        log_attempt();
        seteuid(getuid());
    }
    execl("/bin/sh", "sh");
}
`

func main() {
	prop := pdm.SimplePrivilegeProperty()
	events := minic.PrivilegeEvents()

	for _, c := range []struct {
		name, src string
	}{{"buggy", buggy}, {"fixed", fixed}} {
		prog := minic.MustParse(c.src)

		res, err := pdm.Check(prog, prop, events, "", core.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s (constraint engine): %d violation(s)\n", c.name, len(res.Violations()))
		for _, v := range res.Violations() {
			fmt.Println("  ", v)
			for _, tp := range v.Trace {
				fmt.Printf("      via %s:%d\n", tp.Fn, tp.Line)
			}
		}

		mres, err := mops.Check(prog, prop, events, "")
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s (post* baseline): violating=%v\n\n", c.name, mres.Violating)
	}

	// The full Table 1 property is stricter: even the "fixed" program
	// only drops the effective uid, keeping the saved uid root and the
	// supplementary groups — still flagged.
	full := pdm.FullPrivilegeProperty()
	res, err := pdm.Check(minic.MustParse(fixed), full, pdm.FullPrivilegeEvents(), "", core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("fixed program under the full 11-state property: %d violation(s) (temporary drops are not enough)\n",
		len(res.Violations()))
}
