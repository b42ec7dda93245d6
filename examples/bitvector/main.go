// Bitvector: interprocedural gen/kill dataflow (§3.3) as annotated
// constraints — a taint analysis where source() generates a fact per
// variable, sanitize() kills it and sink() checks it — cross-validated
// against the classic summary-based iterative engine.
//
// Facts are named syntactically (by variable name), as in the paper's
// parametric annotations: the parameter/label pairs of §6.4 correlate
// occurrences of the same name.
package main

import (
	"fmt"

	"rasc/internal/bitvector"
	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/monoid"
)

const program = `
void consume(int t) {
    sink(t);              // t is the caller's tainted value
}
void main() {
    int p = source();
    int q = source();
    sanitize(p);
    sink(p);              // safe: p was sanitized
    sink(q);              // violation: q is still tainted
    int t = source();
    consume(t);           // violation inside consume (same fact name)
}
`

func main() {
	// The 1-bit gen/kill machine (Figure 1) has |F^≡| = 3; the n-bit
	// product machine grows as 3^n (§3.3) — the parametric encoding used
	// below tracks facts per name instead, avoiding the blowup.
	for _, n := range []int{1, 2, 3, 4} {
		m, err := monoid.Build(bitvector.Machine(n), 1<<20)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d-bit machine: %4d states, |F^≡| = %d\n", n, 1<<uint(n), m.Size())
	}

	prog := minic.MustParse(program)
	res, err := bitvector.Check(prog, core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nconstraint engine: %d violation(s)\n", len(res.Violations()))
	for _, v := range res.Violations() {
		fmt.Printf("  %s:%d tainted use of %s\n", v.Fn, v.Line, v.Label)
	}

	iter, err := bitvector.CheckIterative(prog)
	if err != nil {
		panic(err)
	}
	fmt.Printf("iterative baseline: %d violation(s)\n", len(iter.Violations))
	for _, v := range iter.Violations {
		fmt.Printf("  %s:%d tainted use of %s\n", v.Fn, v.Line, v.Label)
	}
}
