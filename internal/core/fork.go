package core

import "maps"

// clip caps a slice at its length so that appending through the returned
// header always reallocates instead of writing into backing storage that
// a forked base still shares.
func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// Fork returns an independent System layered on a frozen snapshot of s:
// the fork sees every variable, constructor expression, edge, derived
// fact and clash of s, can be extended and solved on its own, and never
// writes back into s. Large per-variable arrays are shared copy-on-write
// (appends reallocate, the reach index is copied on first insert) and
// the dedup tables are shared through read-only base layers, so forking
// costs one pass over the variable headers rather than a rebuild of the
// derivation. The fork's variable table leaves headroom, so the layer's
// first new variables do not reallocate it.
//
// Contract: the receiver must be quiescent — Solve has drained its work
// queue — and must not be mutated (or queried through PNReach, whose
// union-find accesses compress paths) after the first Fork. Concurrent
// Forks of the same frozen base are safe. alg replaces the annotation
// algebra and must agree with s's algebra on every annotation occurring
// in s; the intended use builds the base with identity annotations only,
// which every Algebra represents as 0, then layers property-specific
// annotated constraints on each fork.
func (s *System) Fork(alg Algebra) *System {
	if len(s.work) > 0 {
		panic("core: Fork of an unsolved System (call Solve first)")
	}
	f := &System{
		Alg:           alg,
		Sig:           s.Sig,
		opts:          s.opts,
		nameFn:        s.nameFn,
		freshPrefixes: clip(s.freshPrefixes),
		prefixIndex:   maps.Clone(s.prefixIndex),
		varIndex:      s.varIndex.fork(),
		consIndex:     s.consIndex.fork(),
		edgeSeen:      s.edgeSeen.fork(),
		sinkSeen:      s.sinkSeen.fork(),
		projSeen:      s.projSeen.fork(),
		clashSeen:     s.clashSeen.fork(),
		clashes:       clip(s.clashes),
		raw:           clip(s.raw),
		work:          make([]workItem, 0, 64),
		nEdges:        s.nEdges,
		nReach:        s.nReach,
		nCollapsed:    s.nCollapsed,
		metrics:       s.metrics,
	}
	// Headroom for the layer's own variables, mostly projection-merge
	// intermediates.
	f.vars = make([]varData, len(s.vars), len(s.vars)+len(s.vars)/4+8)
	copy(f.vars, s.vars)
	for i := range f.vars {
		vd := &f.vars[i]
		vd.out = clip(vd.out)
		vd.sinks = clip(vd.sinks)
		vd.projs = clip(vd.projs)
		vd.argOf = clip(vd.argOf)
		vd.reach.facts = clip(vd.reach.facts)
		vd.reach.shared = true
		if vd.projMerge != nil {
			vd.projMerge = maps.Clone(vd.projMerge)
		}
	}
	f.cons = make([]consData, len(s.cons))
	copy(f.cons, s.cons)
	for i := range f.cons {
		// args are immutable after interning and stay shared.
		f.cons[i].occur = clip(f.cons[i].occur)
	}
	return f
}

// Freeze normalizes the union-find so that later read-only operations
// (VarName, Rep on a compressed path, Fork's header copies) perform no
// writes, making a solved System safe to Fork from multiple goroutines.
//
// Contract: Freeze is idempotent — after one call every union-find
// parent is a root, so further calls (and every find on any path) read
// without writing. It is therefore safe to call again on an
// already-frozen System, even concurrently with Forks of it. Freeze
// does not imply quiescence: it is the caller's job not to add
// constraints afterwards (Fork's contract), and a post-Freeze mutation
// simply requires another Freeze before the next Fork.
func (s *System) Freeze() {
	for v := range s.vars {
		s.find(VarID(v))
	}
}
