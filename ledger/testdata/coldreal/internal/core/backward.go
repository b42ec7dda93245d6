package core

import (
	"fmt"

	"rasc/internal/monoid"
)

// This file implements the backward unidirectional solving strategy
// sketched in §5 ("the construction for the backwards case is symmetric,
// using a left congruence in place of a right congruence"). Backward
// solving pushes upper-bound sinks toward lower-bound sources. Under the
// left congruence, two words are identified when they carry every state
// into acceptance identically:
//
//	w ≡_l w'  ⇔  ∀x. xw ∈ L(M) iff xw' ∈ L(M)
//
// so a derived backward annotation is fully described by the set
// {s | δ(w, s) ∈ S_accept}, a bitset over states. We implement the solver
// for the atomic fragment (variable-variable constraints plus constant
// bounds), which is what CFG-shaped dataflow clients use; constructor
// structure in backward mode would require the same function-valued
// segment tracking as the forward solver and is handled there.

// BackwardResult is the result of a backward solve for a set of query
// targets.
type BackwardResult struct {
	sys *System
	mon *monoid.Monoid
	// bits[target][v] = set of states s such that some path word w from v
	// to target has δ(w, s) accepting.
	bits []map[VarID]uint64
	// targets in query order.
	targets []VarID
	nFacts  int
}

// SolveBackward runs the backward unidirectional solver for the given
// query target variables. It requires the FuncAlgebra, a machine with at
// most 64 states, and a constraint system in the atomic fragment
// (variable-variable edges and constant lower/upper bounds).
func (s *System) SolveBackward(targets []VarID) (*BackwardResult, error) {
	fa, ok := s.Alg.(FuncAlgebra)
	if !ok {
		return nil, fmt.Errorf("core: backward solving requires the representative-function algebra")
	}
	if fa.Mon.M.NumStates > 64 {
		return nil, fmt.Errorf("core: backward solving supports at most 64 machine states, have %d", fa.Mon.M.NumStates)
	}
	// Reverse adjacency over the raw var-var constraints.
	pred := make([][]edge, len(s.vars))
	for _, rc := range s.raw {
		switch rc.kind {
		case rawVarVar:
			pred[rc.y] = append(pred[rc.y], edge{rc.x, rc.a})
		case rawLower, rawUpper:
			if len(s.cons[rc.cn].args) > 0 {
				return nil, fmt.Errorf("core: backward solving implements the atomic fragment; constructor %s has arity %d (use SolveForward or Solve)",
					s.Sig.Name(s.cons[rc.cn].cons), len(s.cons[rc.cn].args))
			}
		case rawProj:
			return nil, fmt.Errorf("core: backward solving implements the atomic fragment; projection constraints unsupported")
		}
	}

	mon := fa.Mon
	// acceptBits: the left class of ε.
	var acceptBits uint64
	for st := 0; st < mon.M.NumStates; st++ {
		if mon.M.Accept[st] {
			acceptBits |= 1 << uint(st)
		}
	}

	r := &BackwardResult{sys: s, mon: mon, targets: targets}
	for _, t := range targets {
		cur := make(map[VarID]uint64)
		type item struct {
			v VarID
			b uint64
		}
		var work []item
		add := func(v VarID, b uint64) {
			if b == 0 {
				return
			}
			old := cur[v]
			nb := old | b
			if nb == old {
				return
			}
			cur[v] = nb
			r.nFacts++
			work = append(work, item{v, nb})
		}
		add(t, acceptBits)
		for len(work) > 0 {
			it := work[len(work)-1]
			work = work[:len(work)-1]
			if cur[it.v] != it.b {
				continue // superseded
			}
			for _, e := range pred[it.v] {
				// Crossing x ⊆^g y backward: s is good at x iff g(s) is
				// good at y.
				g := mon.Func(monoid.FuncID(e.a))
				var nb uint64
				for st := 0; st < mon.M.NumStates; st++ {
					if it.b&(1<<uint(g[st])) != 0 {
						nb |= 1 << uint(st)
					}
				}
				add(e.to, nb)
			}
		}
		r.bits = append(r.bits, cur)
	}
	return r, nil
}

// ConstEntailed reports whether constant cn (seeded by its lower-bound
// constraints) reaches target with a word in L(M): some seed's
// start-image state is in the target's backward bitset.
func (r *BackwardResult) ConstEntailed(cn CNode, target VarID) bool {
	ti := r.targetIndex(target)
	if ti < 0 {
		return false
	}
	for _, rc := range r.sys.raw {
		if rc.kind != rawLower || rc.cn != cn {
			continue
		}
		st := r.mon.Apply(monoid.FuncID(rc.a), r.mon.M.Start)
		if r.bits[ti][rc.y]&(1<<uint(st)) != 0 {
			return true
		}
	}
	return false
}

// BitsAt returns the backward bitset of v for the given target.
func (r *BackwardResult) BitsAt(target, v VarID) uint64 {
	ti := r.targetIndex(target)
	if ti < 0 {
		return 0
	}
	return r.bits[ti][v]
}

func (r *BackwardResult) targetIndex(t VarID) int {
	for i, x := range r.targets {
		if x == t {
			return i
		}
	}
	return -1
}

// Facts returns the number of distinct derived facts (bitset refinements).
func (r *BackwardResult) Facts() int { return r.nFacts }
