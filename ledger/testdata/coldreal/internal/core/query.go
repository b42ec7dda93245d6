package core

import (
	"fmt"
	"sort"
	"strings"

	"rasc/internal/monoid"
	"rasc/internal/terms"
)

// This file implements the query phase (§3.2). The solver does not
// materialize representative-function variables during resolution; queries
// reconstruct the needed function information from the composed path
// annotations stored in the reach tables.

// SourceFact is one entailed lower bound: constructor expression Cn is in
// the queried variable with composed annotation A.
type SourceFact struct {
	Cn CNode
	A  Annot
}

// SourcesAt returns all constructor expressions (with annotations) known
// to flow into v, in deterministic order. Solve must have been called.
func (s *System) SourcesAt(v VarID) []SourceFact {
	v = s.find(v)
	facts := s.vars[v].reach.facts
	out := make([]SourceFact, 0, len(facts))
	for i := range facts {
		out = append(out, SourceFact{facts[i].cn, facts[i].a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cn != out[j].Cn {
			return out[i].Cn < out[j].Cn
		}
		return out[i].A < out[j].A
	})
	return out
}

// ConstAnnots returns the annotations with which the constant cn is
// present in v (top level, fully matched flow only).
func (s *System) ConstAnnots(cn CNode, v VarID) []Annot {
	v = s.find(v)
	var out []Annot
	for _, f := range s.vars[v].reach.facts {
		if f.cn == cn {
			out = append(out, f.a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConstEntailed implements the simple entailment query of §3.2:
//
//	C ∧ f_ε ⊆ α ⊨ ⋁_{f ∈ F_accept} cn^α ⊆^f v
//
// which holds iff the constant reaches v with some accepting annotation.
func (s *System) ConstEntailed(cn CNode, v VarID) bool {
	for _, a := range s.ConstAnnots(cn, v) {
		if s.Alg.Accepting(a) {
			return true
		}
	}
	return false
}

// Flows reports whether constant cn reaches v at all (with any
// annotation, accepting or not) through fully matched flow. This is the
// matched label-flow query of §7.3.
func (s *System) Flows(cn CNode, v VarID) bool {
	v = s.find(v)
	for _, f := range s.vars[v].reach.facts {
		if f.cn == cn {
			return true
		}
	}
	return false
}

// --- PN reachability (§6.2) -------------------------------------------

// PNFact is one positive-negative reachability fact: the queried constant
// occurs (at any constructor depth) in variable V with total annotation A.
type PNFact struct {
	V VarID
	A Annot
}

type pnKey struct {
	v       VarID
	a       Annot
	wrapped bool // true once the fact is inside an unmatched constructor (phase P)
}

type pnParent struct {
	fromV VarID
	fromA Annot
	fromW bool
	via   CNode // constructor wrapped through; -1 otherwise
	pop   bool  // true for an unmatched projection (N) step
}

// PNResult holds the result of a PN-reachability query for one constant.
type PNResult struct {
	sys   *System
	cn    CNode
	facts map[pnKey]pnParent
	order []PNFact
	seen  map[PNFact]bool
	// byVar indexes annotations per variable, built lazily on first At.
	byVar map[VarID][]Annot
}

// PNReach computes positive-negative reachability (§6.2, and [15]) for
// the constant cn: every (variable, annotation) at which the constant
// occurs, allowing partially matched call/return paths of the shape
// N*-matched-P*. Three step kinds combine:
//
//   - fully matched flow comes from the solved reach tables (the
//     projection rule already derived those edges);
//   - unmatched "returns" (N steps) let a top-level fact cross a
//     projection constraint c^-i(X) ⊆^g Z, after which it keeps
//     propagating along ordinary edges; once a fact wraps it may not take
//     further N steps (the N*M*P* discipline);
//   - unmatched "calls" (P steps) are wrap steps through constructor
//     expressions whose argument holds the constant, enumerated through
//     the expression's solved occurrences.
//
// The system must be solved first.
func (s *System) PNReach(cn CNode) *PNResult {
	r := &PNResult{sys: s, cn: cn, facts: make(map[pnKey]pnParent), seen: make(map[PNFact]bool)}
	// Per-variable projection index over the raw constraints (the solver
	// may have rerouted its own copies through projection merging).
	projIdx := map[VarID][]rawConstraint{}
	for _, rc := range s.raw {
		if rc.kind == rawProj {
			x := s.find(rc.x)
			projIdx[x] = append(projIdx[x], rc)
		}
	}
	type item struct {
		v       VarID
		a       Annot
		wrapped bool
	}
	var work []item
	add := func(v VarID, a Annot, wrapped bool, p pnParent) {
		v = s.find(v)
		k := pnKey{v, a, wrapped}
		if _, dup := r.facts[k]; dup {
			return
		}
		r.facts[k] = p
		f := PNFact{v, a}
		if !r.seen[f] {
			r.seen[f] = true
			r.order = append(r.order, f)
		}
		work = append(work, item{v, a, wrapped})
	}
	// Seed: top-level occurrences of the constant (phase N).
	for _, oc := range s.cons[cn].occur {
		add(oc.v, oc.a, false, pnParent{fromV: -1, via: -1})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if !it.wrapped {
			// N-phase: ordinary edges and unmatched projections.
			for _, e := range s.vars[it.v].out {
				add(s.find(e.to), s.Alg.Then(it.a, e.a), false,
					pnParent{fromV: it.v, fromA: it.a, via: -1})
			}
			for _, rc := range projIdx[it.v] {
				add(s.find(rc.y), s.Alg.Then(it.a, rc.a), false,
					pnParent{fromV: it.v, fromA: it.a, via: -1, pop: true})
			}
		}
		// Wrap steps (either phase; result is phase P).
		for _, use := range s.vars[it.v].argOf {
			for _, oc := range s.cons[use.cn].occur {
				add(oc.v, s.Alg.Then(it.a, oc.a), true,
					pnParent{fromV: it.v, fromA: it.a, fromW: it.wrapped, via: use.cn})
			}
		}
	}
	return r
}

// At returns the annotations with which the constant occurs at v.
func (r *PNResult) At(v VarID) []Annot {
	if r.byVar == nil {
		r.byVar = make(map[VarID][]Annot)
		for _, f := range r.order {
			r.byVar[f.V] = append(r.byVar[f.V], f.A)
		}
		for _, as := range r.byVar {
			sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		}
	}
	return r.byVar[r.sys.find(v)]
}

// AcceptingAt reports whether the constant occurs at v with an accepting
// annotation — for the model checker, a property violation at v.
func (r *PNResult) AcceptingAt(v VarID) (Annot, bool) {
	for _, a := range r.At(v) {
		if r.sys.Alg.Accepting(a) {
			return a, true
		}
	}
	return 0, false
}

// Accepting returns all facts with accepting annotations, in discovery
// order.
func (r *PNResult) Accepting() []PNFact {
	var out []PNFact
	for _, f := range r.order {
		if r.sys.Alg.Accepting(f.A) {
			out = append(out, f)
		}
	}
	return out
}

// Facts returns every PN fact in discovery order.
func (r *PNResult) Facts() []PNFact { return r.order }

// Trace reconstructs a witness for the fact (v, a): the chain of
// variables the constant moved through, from a seed constraint to v.
// Wrap steps appear with Wrapped set to the constructor expression.
func (r *PNResult) Trace(v VarID, a Annot) []TraceStep {
	v = r.sys.find(v)
	var steps []TraceStep
	seen := map[pnKey]bool{}
	k, ok := r.lookup(v, a)
	if !ok {
		return nil
	}
	for {
		p, found := r.facts[k]
		if !found || seen[k] {
			break
		}
		seen[k] = true
		steps = append(steps, TraceStep{Var: k.v, Annot: k.a, Wrapped: p.via, Popped: p.pop})
		if p.fromV < 0 {
			// Seed: continue through the reach-level witness (whose
			// first step repeats the current fact).
			pre := r.sys.witness(k.v, r.cn, k.a, map[pnKey]bool{})
			if len(pre) > 1 {
				steps = append(steps, pre[1:]...)
			}
			break
		}
		k = pnKey{r.sys.find(p.fromV), p.fromA, p.fromW}
	}
	reverse(steps)
	return steps
}

// lookup finds the fact key for (v, a) in either phase, preferring the
// unwrapped one.
func (r *PNResult) lookup(v VarID, a Annot) (pnKey, bool) {
	if _, ok := r.facts[pnKey{v, a, false}]; ok {
		return pnKey{v, a, false}, true
	}
	if _, ok := r.facts[pnKey{v, a, true}]; ok {
		return pnKey{v, a, true}, true
	}
	return pnKey{}, false
}

// TraceStep is one hop of a witness path.
type TraceStep struct {
	Var   VarID
	Annot Annot
	// Wrapped is the constructor expression wrapped through on this hop,
	// or -1 for plain flow.
	Wrapped CNode
	// Popped marks an unmatched projection (N) step.
	Popped bool
}

func reverse(s []TraceStep) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Witness reconstructs the variable chain along which cn first reached v
// with annotation a (top-level flow). Returns nil if the fact is unknown
// or witness tracking is disabled.
func (s *System) Witness(v VarID, cn CNode, a Annot) []TraceStep {
	steps := s.witness(s.find(v), cn, a, map[pnKey]bool{})
	reverse(steps)
	return steps
}

func (s *System) witness(v VarID, cn CNode, a Annot, seen map[pnKey]bool) []TraceStep {
	var steps []TraceStep
	for {
		k := pnKey{v: v, a: a}
		if seen[k] {
			break
		}
		seen[k] = true
		p, ok := s.vars[v].reach.lookup(cn, a)
		if !ok {
			break
		}
		steps = append(steps, TraceStep{Var: v, Annot: a, Wrapped: -1})
		if p.step == stepSeed || p.fromVar < 0 {
			break
		}
		v, a = s.find(p.fromVar), p.annot
	}
	return steps
}

// --- Word-variable reconstruction and term enumeration ------------------

// RootAnnots reconstructs, at query time, the least solution of the
// representative-function constraints that eager resolution would have
// attached to constructor expressions (the f ∘ α ⊆ β of the structural
// rule, §3.1). The solver itself never materializes these variables (§3.2,
// §8); this pass replays the structural meets recorded in the reach tables
// to a fixed point.
//
// seeds lists the constructor expressions whose word variables are
// hypothesized to contain f_ε (the "f_ε ⊆ α" premises a query adds for the
// variables of the queried term). Expressions outside seeds contribute
// only their forced lower bounds.
func (s *System) RootAnnots(seeds []CNode) map[CNode]map[Annot]bool {
	res := make(map[CNode]map[Annot]bool)
	add := func(cn CNode, a Annot) bool {
		m := res[cn]
		if m == nil {
			m = make(map[Annot]bool)
			res[cn] = m
		}
		if m[a] {
			return false
		}
		m[a] = true
		return true
	}
	for _, cn := range seeds {
		add(cn, s.Alg.Identity())
	}
	for changed := true; changed; {
		changed = false
		for v := range s.vars {
			vd := &s.vars[VarID(v)]
			if vd.uf != VarID(v) || len(vd.sinks) == 0 {
				continue
			}
			for _, sk := range vd.sinks {
				for _, f := range vd.reach.facts {
					if s.cons[f.cn].cons != s.cons[sk.cn].cons {
						continue
					}
					h := s.Alg.Then(f.a, sk.a)
					for w := range res[f.cn] {
						if add(sk.cn, s.Alg.Then(w, h)) {
							changed = true
						}
					}
				}
			}
		}
	}
	return res
}

// LowerNodes returns every constructor expression that occurs on the
// left-hand side of a lower-bound constraint: the default f_ε seed set for
// term enumeration.
func (s *System) LowerNodes() []CNode {
	seen := make(map[CNode]bool)
	var out []CNode
	for _, rc := range s.raw {
		if rc.kind == rawLower && !seen[rc.cn] {
			seen[rc.cn] = true
			out = append(out, rc.cn)
		}
	}
	return out
}

// TermsIn enumerates the annotated ground terms in the least solution of
// v with every lower-bound expression's word variable seeded with f_ε, up
// to the given constructor depth and capped at limit terms (0 = no cap).
// See TermsInSeeded for the seed-controlled variant.
func (s *System) TermsIn(v VarID, bank *terms.Bank, maxDepth, limit int) []terms.TermID {
	return s.TermsInSeeded(v, bank, maxDepth, limit, s.LowerNodes())
}

// TermsInSeeded enumerates the terms of v's least solution under the
// query hypothesis f_ε ⊆ α for the word variables of the seed
// expressions. A term c^w(t1,…,tn) is in v when some reach fact
// (c(X1,…,Xn), f) holds at v with w = w0·f for a root annotation w0 of
// the expression, and ti = ui·f for ui in the least solution of Xi.
// The result is hash-consed: intersecting two variables' term sets is set
// intersection on TermIDs, which is how stack-aware alias queries (§7.5)
// are answered.
func (s *System) TermsInSeeded(v VarID, bank *terms.Bank, maxDepth, limit int, seeds []CNode) []terms.TermID {
	roots := s.RootAnnots(seeds)
	set := map[terms.TermID]bool{}
	s.termsIn(s.find(v), bank, maxDepth, limit, roots, set)
	out := make([]terms.TermID, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *System) termsIn(v VarID, bank *terms.Bank, depth, limit int,
	roots map[CNode]map[Annot]bool, acc map[terms.TermID]bool) {
	if depth <= 0 {
		return
	}
	fa, isFunc := s.Alg.(FuncAlgebra)
	for _, rf := range s.vars[v].reach.facts {
		k := reachKey{rf.cn, rf.a}
		if limit > 0 && len(acc) >= limit {
			return
		}
		cd := s.cons[k.cn]
		// Argument term sets, each extended by this fact's path
		// annotation (the ·w operation applies at every level).
		argSets := make([][]terms.TermID, len(cd.args))
		feasible := true
		for i, av := range cd.args {
			sub := map[terms.TermID]bool{}
			s.termsIn(s.find(av), bank, depth-1, limit, roots, sub)
			if len(sub) == 0 {
				feasible = false
				break
			}
			for t := range sub {
				if isFunc {
					t = bank.Append(t, toFuncID(k.a), fa.Mon)
				}
				argSets[i] = append(argSets[i], t)
			}
			sort.Slice(argSets[i], func(x, y int) bool { return argSets[i][x] < argSets[i][y] })
		}
		if !feasible {
			continue
		}
		for w := range roots[k.cn] {
			root := s.Alg.Then(w, k.a)
			if !isFunc {
				root = 0
			}
			combine(bank, cd.cons, toFuncID(root), argSets, nil, acc, limit)
		}
	}
}

// EntailedTermIn reports the general entailment query of §3.2 for a
// ground term: whether t (interned in bank over the same signature and
// monoid) is in every solution of v, under f_ε seeds for the given
// expressions. maxDepth bounds the search to t's own depth.
func (s *System) EntailedTermIn(t terms.TermID, v VarID, bank *terms.Bank, seeds []CNode) bool {
	depth := bank.Depth(t)
	for _, got := range s.TermsInSeeded(v, bank, depth, 0, seeds) {
		if got == t {
			return true
		}
	}
	return false
}

func toFuncID(a Annot) monoid.FuncID { return monoid.FuncID(a) }

func combine(bank *terms.Bank, c terms.ConsID, annot monoid.FuncID, argSets [][]terms.TermID,
	picked []terms.TermID, acc map[terms.TermID]bool, limit int) {
	if limit > 0 && len(acc) >= limit {
		return
	}
	if len(picked) == len(argSets) {
		acc[bank.MustMk(c, annot, picked...)] = true
		return
	}
	for _, t := range argSets[len(picked)] {
		combine(bank, c, annot, argSets, append(picked, t), acc, limit)
	}
}

// HeadAnnots implements the general form of the §3.2 query: the
// annotations with which any constructor expression headed by c flows
// into v (used e.g. to search for terms denoting errors when checking
// finite state properties). Constants are the special case where the
// expression is unique.
func (s *System) HeadAnnots(c terms.ConsID, v VarID) []Annot {
	v = s.find(v)
	set := map[Annot]bool{}
	for _, f := range s.vars[v].reach.facts {
		if s.cons[f.cn].cons == c {
			set[f.a] = true
		}
	}
	out := make([]Annot, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeadEntailed reports whether some c-headed expression is in v with an
// accepting annotation.
func (s *System) HeadEntailed(c terms.ConsID, v VarID) bool {
	for _, a := range s.HeadAnnots(c, v) {
		if s.Alg.Accepting(a) {
			return true
		}
	}
	return false
}

// DOT renders the solved constraint graph in Graphviz dot format:
// variables as ellipses (merged representatives folded together),
// constructor expressions as boxes, annotated edges labelled with their
// annotation. Intended for small systems; large graphs are unreadable.
func (s *System) DOT(name string) string {
	var b strings.Builder
	if name == "" {
		name = "constraints"
	}
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	ident := s.Alg.Identity()
	lbl := func(a Annot) string {
		if a == ident {
			return ""
		}
		return s.Alg.String(a)
	}
	for v := range s.vars {
		if s.find(VarID(v)) != VarID(v) {
			continue
		}
		fmt.Fprintf(&b, "  v%d [label=%q];\n", v, s.VarName(VarID(v)))
		for _, e := range s.vars[v].out {
			fmt.Fprintf(&b, "  v%d -> v%d [label=%q];\n", v, int(s.find(e.to)), lbl(e.a))
		}
		for _, sk := range s.vars[v].sinks {
			fmt.Fprintf(&b, "  v%d -> c%d [label=%q, style=dashed];\n", v, int(sk.cn), lbl(sk.a))
		}
		for _, pr := range s.vars[v].projs {
			fmt.Fprintf(&b, "  v%d -> v%d [label=\"%s^-%d %s\", style=dotted];\n",
				v, int(s.find(pr.to)), s.Sig.Name(pr.cons), pr.idx+1, lbl(pr.a))
		}
	}
	for cn := range s.cons {
		fmt.Fprintf(&b, "  c%d [label=%q, shape=box];\n", cn, s.ConsString(CNode(cn)))
		for _, arg := range s.cons[cn].args {
			fmt.Fprintf(&b, "  v%d -> c%d [style=dashed, arrowhead=none];\n", int(s.find(arg)), cn)
		}
	}
	// Seed constraints (lower bounds).
	for _, rc := range s.raw {
		if rc.kind == rawLower {
			fmt.Fprintf(&b, "  c%d -> v%d [label=%q];\n", int(rc.cn), int(s.find(rc.y)), lbl(rc.a))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
