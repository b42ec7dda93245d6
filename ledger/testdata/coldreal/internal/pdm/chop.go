package pdm

import (
	"fmt"
	"sort"

	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/spec"
	"rasc/internal/terms"
)

// DangerPoints computes the program points of one function that lie on
// some property-violating execution — the "chop" of forward and backward
// reachability, and a direct application of both unidirectional solving
// strategies of §5 on the same constraint system:
//
//   - the forward solver computes, per point, the automaton states
//     reachable from the function's entry (derived annotations in F^≡r:
//     one DFA state each);
//   - the backward solver computes, per point, the set of states from
//     which some suffix path reaches acceptance (left-congruence classes:
//     one bitset each);
//   - a point is dangerous iff the two intersect.
//
// The analysis is intraprocedural (calls to defined functions are treated
// as irrelevant steps), matching the atomic constraint fragment the
// backward solver implements. Returns the dangerous nodes' CFG ids,
// ascending.
func DangerPoints(prog *minic.Program, prop *spec.Property, events *minic.EventMap, fn string) ([]int, error) {
	if prop.IsParametric() {
		return nil, fmt.Errorf("pdm: DangerPoints supports non-parametric properties")
	}
	fd, ok := prog.ByName[fn]
	if !ok {
		return nil, fmt.Errorf("pdm: function %q not defined", fn)
	}
	fn = fd.Name // resolve aliases to the canonical name
	cfg := minic.MustBuild(prog)

	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)
	sys := core.NewSystem(core.FuncAlgebra{Mon: prop.Mon}, sig, core.Options{})

	nodeVar := map[int]core.VarID{}
	var fnNodes []int
	for _, n := range cfg.Nodes {
		if n.Fn != fn {
			continue
		}
		fnNodes = append(fnNodes, n.ID)
		nodeVar[n.ID] = sys.Var(fmt.Sprintf("S%d", n.ID))
	}
	pc := sys.Constant(pcCons)
	sys.AddLowerE(pc, nodeVar[cfg.Entry[fn]])
	// The suffix sink: every point flows into it, so its backward bitset
	// at v is the set of states from which some suffix of an execution
	// starting at v accepts.
	sink := sys.Var("$suffix-sink")

	ident := core.Annot(prop.Mon.Identity())
	for _, id := range fnNodes {
		n := cfg.Nodes[id]
		a := ident
		if n.Kind == minic.NAction {
			if ev, ok := events.Match(n.Call, n.AssignTo); ok {
				f, found := prop.Mon.SymbolFuncByName(ev.Symbol)
				if !found {
					return nil, fmt.Errorf("pdm: event symbol %q not in property alphabet", ev.Symbol)
				}
				a = core.Annot(f)
			}
			// Calls to defined functions are irrelevant (ε) steps in the
			// intraprocedural abstraction.
		}
		for _, m := range n.Succs {
			sys.AddVar(nodeVar[id], nodeVar[m], a)
		}
		sys.AddVarE(nodeVar[id], sink)
	}

	fw, err := sys.SolveForward(nil)
	if err != nil {
		return nil, err
	}
	bw, err := sys.SolveBackward([]core.VarID{sink})
	if err != nil {
		return nil, err
	}

	var out []int
	for _, id := range fnNodes {
		v := nodeVar[id]
		bits := bw.BitsAt(sink, v)
		for _, st := range fw.ConstStates(pc, v) {
			if bits&(1<<uint(st)) != 0 {
				out = append(out, id)
				break
			}
		}
	}
	sort.Ints(out)
	return out, nil
}

// DangerLines maps DangerPoints to source lines (deduplicated, ascending),
// skipping entry/exit markers.
func DangerLines(prog *minic.Program, prop *spec.Property, events *minic.EventMap, fn string) ([]int, error) {
	ids, err := DangerPoints(prog, prop, events, fn)
	if err != nil {
		return nil, err
	}
	cfg := minic.MustBuild(prog)
	seen := map[int]bool{}
	var out []int
	for _, id := range ids {
		n := cfg.Nodes[id]
		if n.Kind != minic.NAction || seen[n.Line] {
			continue
		}
		seen[n.Line] = true
		out = append(out, n.Line)
	}
	sort.Ints(out)
	return out, nil
}
