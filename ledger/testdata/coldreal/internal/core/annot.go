// Package core implements the paper's primary contribution: a resolution
// engine for regularly annotated set constraints (§3). Constraints
// se1 ⊆^a se2 carry annotations drawn from a finite annotation algebra —
// the transition monoid F_M^≡ of the property automaton, or substitution
// environments over it for parametric properties (§6.4). The solver
// applies the resolution rules
//
//	c^α(X1,…,Xn) ⊆^f c^β(Y1,…,Yn)  ⇒  ∧i Xi ⊆^f Yi   (structural)
//	c^α(…) ⊆^f d^β(…)              ⇒  no solution     (clash)
//	c^α(…,Xi,…) ⊆^f Y ∧ c^-i(Y) ⊆^g Z ⇒ Xi ⊆^{f·g} Z  (projection)
//	se1 ⊆^f X ∧ X ⊆^g se2          ⇒  se1 ⊆^{f·g} se2 (transitive)
//
// to a fixed point. Like the BANSHEE implementation described in §8, the
// solver does not materialize representative-function variables on
// constructor expressions; the function constraints needed by a query are
// reconstructed from the composed path annotations at query time, which
// enables aggressive hash-consing of constructor expressions.
//
// Three solving strategies are provided (§5): the bidirectional online
// solver (Solve), which supports separate and incremental analysis and
// tracks full representative functions; and the unidirectional forward
// (SolveForward) and backward (SolveBackward) solvers, which quotient
// derived annotations by the right (left) congruence and track only DFA
// states (accepting state-sets), trading separate analysis for the
// asymptotically smaller annotation domain.
package core

import (
	"rasc/internal/monoid"
	"rasc/internal/subst"
)

// Annot is an interned annotation: a representative function (FuncID) or a
// substitution environment (subst.ID), depending on the system's Algebra.
type Annot int32

// Algebra abstracts the annotation domain: a finite monoid with a
// distinguished set of "accepting" elements (the F_accept of §3.2,
// functions representing full words of L(M)).
type Algebra interface {
	// Identity is the annotation of ε (unannotated constraints).
	Identity() Annot
	// Then composes annotations in word order: word(a) followed by word(b).
	Then(a, b Annot) Annot
	// Accepting reports whether a represents full words of L(M) — for the
	// monoid algebra, a(s0) ∈ S_accept; for substitution environments,
	// whether any instantiation is accepting.
	Accepting(a Annot) bool
	// Dead reports whether a's words can never extend to a word of
	// L(M) on either side — such annotations lie outside the substring
	// domain T^{M^sub} and may be pruned (§3.1). Dead annotations are
	// absorbing under Then.
	Dead(a Annot) bool
	// String renders a for diagnostics.
	String(a Annot) string
}

// FuncAlgebra is the Algebra of representative functions of a transition
// monoid.
type FuncAlgebra struct {
	Mon *monoid.Monoid
}

// Identity implements Algebra.
func (f FuncAlgebra) Identity() Annot { return Annot(f.Mon.Identity()) }

// Then implements Algebra.
func (f FuncAlgebra) Then(a, b Annot) Annot {
	return Annot(f.Mon.Then(monoid.FuncID(a), monoid.FuncID(b)))
}

// Accepting implements Algebra.
func (f FuncAlgebra) Accepting(a Annot) bool { return f.Mon.Accepting(monoid.FuncID(a)) }

// Dead implements Algebra.
func (f FuncAlgebra) Dead(a Annot) bool { return f.Mon.Dead(monoid.FuncID(a)) }

// String implements Algebra.
func (f FuncAlgebra) String(a Annot) string { return f.Mon.String(monoid.FuncID(a)) }

// EnvAlgebra is the Algebra of substitution environments (§6.4), for
// properties with parametric annotations.
type EnvAlgebra struct {
	Tab *subst.Table
}

// Identity implements Algebra.
func (e EnvAlgebra) Identity() Annot { return Annot(e.Tab.Identity()) }

// Then implements Algebra.
func (e EnvAlgebra) Then(a, b Annot) Annot {
	return Annot(e.Tab.Then(subst.ID(a), subst.ID(b)))
}

// Accepting implements Algebra.
func (e EnvAlgebra) Accepting(a Annot) bool { return e.Tab.Accepting(subst.ID(a)) }

// Dead implements Algebra.
func (e EnvAlgebra) Dead(a Annot) bool {
	env := e.Tab.Env(subst.ID(a))
	if !e.Tab.Mon.Dead(env.Residual) {
		return false
	}
	for _, en := range env.Entries {
		if !e.Tab.Mon.Dead(en.F) {
			return false
		}
	}
	return true
}

// String implements Algebra. The table form annotates each entry with the
// state it has reached, so provenance through counter-expanded machines
// shows the counter valuation.
func (e EnvAlgebra) String(a Annot) string { return e.Tab.String(subst.ID(a)) }

// TrivialAlgebra is the one-element algebra; with it the solver degrades
// to plain (unannotated) set constraints, whose accepting query is always
// true. Useful as a baseline and for classic cubic set-constraint
// problems.
type TrivialAlgebra struct{}

// Identity implements Algebra.
func (TrivialAlgebra) Identity() Annot { return 0 }

// Then implements Algebra.
func (TrivialAlgebra) Then(a, b Annot) Annot { return 0 }

// Accepting implements Algebra.
func (TrivialAlgebra) Accepting(a Annot) bool { return true }

// Dead implements Algebra.
func (TrivialAlgebra) Dead(a Annot) bool { return false }

// String implements Algebra.
func (TrivialAlgebra) String(a Annot) string { return "ε" }
