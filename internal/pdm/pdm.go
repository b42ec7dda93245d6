// Package pdm implements the pushdown model checking application of §6:
// verifying MOPS-class temporal safety properties of C-like programs with
// regularly annotated set constraints. The program's control flow graph
// becomes a constraint system (§6.1): one set variable per CFG node,
// annotated edges for property-relevant statements, and a unary
// constructor per call site whose projection models the matching return.
// The program counter is the constant pc seeded at main's entry; a
// property violation is the presence of pc with an accepting annotation,
// found with PN reachability so that partially matched (unreturned) call
// paths are included (§6.2). Parametric properties (§6.4) use
// substitution-environment annotations.
package pdm

import (
	"fmt"
	"sort"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/monoid"
	"rasc/internal/spec"
	"rasc/internal/subst"
)

// Result is the outcome of a model-checking run.
type Result struct {
	// Sys is the underlying constraint system, for advanced queries.
	Sys *core.System
	// Base holds the solver statistics of the shared skeleton the run was
	// layered on. Sys.Stats() includes it; Sys.Stats().Minus(Base) is the
	// work attributable to this property alone. Zero when the run built
	// its own system.
	Base core.Stats
	// PN is the program counter's PN-reachability result.
	PN *core.PNResult
	// Violations, deduplicated and ordered by line.
	Violations []Violation
	// NodeVar maps CFG node IDs to their set variables; nodes outside the
	// entry's call-graph closure map to NoVar.
	NodeVar []core.VarID

	prog    *minic.Program
	cfg     *minic.CFG
	nodes   []int // the closure's node IDs, ascending; nodes[v] holds VarID v
	prop    *spec.Property
	envTab  *subst.Table
	layered []layeredEvent // ascending node IDs
	alg     core.Algebra
	explain bool

	// varNodes maps representatives back to CFG nodes; built on first
	// use, since only violation traces and provenance need it.
	varNodes map[core.VarID][]int
}

// layeredEvent is a deferred statement the property classified as an
// event, with the annotation of its edges.
type layeredEvent struct {
	id int
	a  core.Annot
}

// Violation is one property violation.
type Violation struct {
	// Fn and Line locate the earliest program point at which the
	// property automaton has reached an accepting (error) state.
	Fn   string
	Line int
	// NodeID is the CFG node.
	NodeID int
	// Label is the offending parameter instantiation for parametric
	// properties ("fd2"), or "" for plain ones.
	Label string
	// May marks a verdict that rests on a saturated counter or relation
	// valuation (the tracker lost the exact value, see spec.MayState):
	// every accepting witness for this label lands in a may-state.
	May bool
	// Trace is the witness path (function, line) hops, oldest first.
	Trace []TracePoint
	// Provenance is the solver-level derivation chain behind the
	// violation, oldest first; populated only when the run was checked
	// with Obs.Explain set.
	Provenance []ProvStep
}

// ProvStep is one hop of a violation's derivation chain: a core
// provenance step positioned in the program and with its annotation
// rendered through the property's algebra. Rule is one of the core
// rule names (seed, edge, wrap, pop) or "event" for the final
// error-state transition appended by collectViolations (and "exit" for
// leak-mode chains).
type ProvStep struct {
	Fn    string `json:"fn"`
	Line  int    `json:"line"`
	Rule  string `json:"rule"`
	Annot string `json:"annot,omitempty"`
}

// TracePoint is one hop of a violation witness.
type TracePoint struct {
	Fn   string
	Line int
	// Enter is set when the hop enters a callee through a call site.
	Enter bool
}

func (v Violation) String() string {
	lbl := ""
	if v.Label != "" {
		lbl = " [" + v.Label + "]"
	}
	return fmt.Sprintf("%s:%d: property violation%s", v.Fn, v.Line, lbl)
}

// Check model-checks prog against the compiled property, using events to
// map calls to alphabet symbols. entry is the entry function ("" means
// main). opts configures the underlying solver.
//
// Check is a convenience wrapper over the two-phase API: it lowers prog
// into the IR, builds a fresh Skeleton whose deferred set is exactly the
// statements events classifies as property events, then layers the
// property on it. Drivers checking several properties over the same
// entry should lower once, call BuildSkeleton once, and Skeleton.Check
// per property instead.
func Check(prog *minic.Program, prop *spec.Property, events *minic.EventMap, entry string, opts core.Options) (*Result, error) {
	p, err := ir.FromProgram(prog)
	if err != nil {
		return nil, err
	}
	sk, err := BuildSkeleton(p, entry, opts, func(call *minic.CallExpr, assignTo string) bool {
		_, ok := events.Match(call, assignTo)
		return ok
	})
	if err != nil {
		return nil, err
	}
	return sk.Check(prop, events)
}

// collectViolations implements §6.2 literally: record each statement that
// could cause a transition to the error state — an action node where the
// event's annotation composes some non-accepting pc occurrence into an
// accepting one — and attach a witness trace.
func (r *Result) collectViolations(alg core.Algebra) {
	seen := map[string]bool{}
	for _, le := range r.layered {
		n, ev := r.cfg.Nodes[le.id], le.a
		v := r.NodeVar[n.ID]
		for _, a := range r.PN.At(v) {
			comp := alg.Then(a, ev)
			fresh := r.newViolationLabels(a, comp)
			if len(fresh) == 0 {
				continue
			}
			steps := r.PN.Trace(r.Sys.Rep(v), a)
			for _, lbl := range fresh {
				key := fmt.Sprintf("%d|%s", n.ID, lbl)
				if seen[key] {
					continue
				}
				seen[key] = true
				tr := r.tracePoints(steps)
				if len(tr) == 0 || tr[len(tr)-1] != (TracePoint{Fn: n.Fn, Line: n.Line}) {
					tr = append(tr, TracePoint{Fn: n.Fn, Line: n.Line})
				}
				var prov []ProvStep
				if r.explain {
					// The derivation chain behind the violating fact, then
					// the event transition that makes it accepting.
					prov = r.provSteps(steps)
					prov = append(prov, ProvStep{
						Fn: n.Fn, Line: n.Line, Rule: "event", Annot: alg.String(comp),
					})
				}
				r.Violations = append(r.Violations, Violation{
					Fn:         n.Fn,
					Line:       n.Line,
					NodeID:     n.ID,
					Label:      lbl,
					May:        r.mayForLabel(comp, lbl),
					Trace:      tr,
					Provenance: prov,
				})
			}
		}
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		if r.Violations[i].Line != r.Violations[j].Line {
			return r.Violations[i].Line < r.Violations[j].Line
		}
		return r.Violations[i].Label < r.Violations[j].Label
	})
}

// newViolationLabels returns the labels accepting in comp but not already
// accepting in prev (for plain properties, [""] when prev is non-accepting
// and comp accepting).
func (r *Result) newViolationLabels(prev, comp core.Annot) []string {
	if r.envTab == nil {
		if !r.prop.Mon.Accepting(monoid.FuncID(comp)) || r.prop.Mon.Accepting(monoid.FuncID(prev)) {
			return nil
		}
		return []string{""}
	}
	before := map[string]bool{}
	for _, lbl := range r.acceptingLabels(prev) {
		before[lbl] = true
	}
	var out []string
	for _, lbl := range r.acceptingLabels(comp) {
		if !before[lbl] {
			out = append(out, lbl)
		}
	}
	sort.Strings(out)
	return out
}

// acceptingLabels lists the accepting instantiations of an environment
// annotation.
func (r *Result) acceptingLabels(a core.Annot) []string {
	var out []string
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		out = append(out, joinBindingLabels(v.Bindings))
	}
	return out
}

func joinBindingLabels(bs []subst.Binding) string {
	lbl := ""
	for i, b := range bs {
		if i > 0 {
			lbl += ","
		}
		lbl += b.Label
	}
	return lbl
}

// mayForLabel reports whether every accepting witness of annotation a for
// the given label lands on a saturated (may) machine state. One definite
// witness makes the verdict definite.
func (r *Result) mayForLabel(a core.Annot, lbl string) bool {
	if r.prop == nil {
		return false
	}
	if r.envTab == nil {
		f := monoid.FuncID(a)
		if !r.prop.Mon.Accepting(f) {
			return false
		}
		return r.prop.MayState(r.prop.Mon.RightClass(f))
	}
	may, found := false, false
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		if joinBindingLabels(v.Bindings) != lbl {
			continue
		}
		if !r.prop.MayState(r.prop.Mon.RightClass(v.F)) {
			return false
		}
		may, found = true, found || true
	}
	return may && found
}

// labelsOf extracts the violating parameter labels of an accepting
// annotation ("" for plain properties or residual violations).
func (r *Result) labelsOf(a core.Annot) []string {
	if r.envTab == nil {
		return []string{""}
	}
	var out []string
	for _, v := range r.envTab.AcceptingEntries(subst.ID(a)) {
		out = append(out, joinBindingLabels(v.Bindings))
	}
	if len(out) == 0 {
		out = []string{""}
	}
	sort.Strings(out)
	return out
}

// provSteps renders a witness trace into positioned provenance hops.
// Hops at solver-internal variables (projection-merge intermediates and
// the like) carry no program point and are dropped; representatives
// merged by cycle elimination map to their lowest-numbered CFG node.
func (r *Result) provSteps(steps []core.TraceStep) []ProvStep {
	var out []ProvStep
	for _, st := range core.ProvFromTrace(steps) {
		ns := r.nodesOf(st.Var)
		if len(ns) == 0 {
			continue
		}
		n := r.cfg.Nodes[ns[0]]
		out = append(out, ProvStep{Fn: n.Fn, Line: n.Line, Rule: st.Rule, Annot: r.alg.String(st.Annot)})
	}
	return out
}

// ExitProvenance returns the derivation chain behind a leak-mode
// finding: how the annotation still accepting for label reached the
// entry function's exit. Returns nil when the run was not checked with
// Obs.Explain, or when no matching accepting fact exists.
func (r *Result) ExitProvenance(entry, label string) []ProvStep {
	if !r.explain {
		return nil
	}
	exitID, exitVar, ok := r.exitNode(entry)
	if !ok {
		return nil
	}
	for _, a := range r.PN.At(exitVar) {
		if !r.accepting(a) {
			continue
		}
		match := label == ""
		for _, lbl := range r.labelsOf(a) {
			if lbl == label {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		steps := r.PN.Trace(r.Sys.Rep(exitVar), a)
		prov := r.provSteps(steps)
		exitNode := r.cfg.Nodes[exitID]
		return append(prov, ProvStep{
			Fn: exitNode.Fn, Line: exitNode.Line, Rule: "exit", Annot: r.alg.String(a),
		})
	}
	return nil
}

func (r *Result) tracePoints(steps []core.TraceStep) []TracePoint {
	var out []TracePoint
	for _, st := range steps {
		ns := r.nodesOf(st.Var)
		if len(ns) == 0 {
			continue
		}
		n := r.cfg.Nodes[ns[0]]
		out = append(out, TracePoint{Fn: n.Fn, Line: n.Line, Enter: st.Wrapped >= 0})
	}
	return out
}

// nodesOf returns the CFG nodes whose variables have representative rep
// (several nodes can share one after cycle elimination), ascending.
func (r *Result) nodesOf(rep core.VarID) []int {
	if r.varNodes == nil {
		r.varNodes = map[core.VarID][]int{}
		for v, id := range r.nodes {
			rep := r.Sys.Rep(core.VarID(v))
			r.varNodes[rep] = append(r.varNodes[rep], id)
		}
	}
	return r.varNodes[rep]
}

// exitNode returns entry's exit node ("" means main) and its variable;
// ok is false when entry is undefined or outside the run's closure.
func (r *Result) exitNode(entry string) (id int, v core.VarID, ok bool) {
	if entry == "" {
		entry = "main"
	}
	fd, defined := r.prog.ByName[entry]
	if !defined {
		return 0, NoVar, false
	}
	id = r.cfg.Exit[fd.Name]
	v = r.NodeVar[id]
	return id, v, v != NoVar
}

// Nodes returns the CFG node IDs the run covers — those of the functions
// in the entry's call-graph closure — ascending.
func (r *Result) Nodes() []int { return r.nodes }

// OpenInstancesAtExit returns, for parametric resource properties such as
// the file-state automaton of Figure 5, the labels whose automaton copy
// is in an accepting state when the entry function exits (e.g. files
// still open at the end of the program, §6.4.1).
func (r *Result) OpenInstancesAtExit(entry string) []string {
	out, _ := r.OpenInstancesAtExitDetail(entry)
	return out
}

// OpenInstancesAtExitDetail is OpenInstancesAtExit plus, per label, whether
// the verdict is a MAY verdict: every accepting valuation reaching the exit
// for that label rests on a saturated counter or relation tracker state.
// Entries outside the run's closure have no exit fact: nil, nil.
func (r *Result) OpenInstancesAtExitDetail(entry string) ([]string, map[string]bool) {
	_, exitVar, ok := r.exitNode(entry)
	if !ok {
		return nil, nil
	}
	may := map[string]bool{}
	for _, a := range r.PN.At(exitVar) {
		if !r.accepting(a) {
			continue
		}
		for _, lbl := range r.labelsOf(a) {
			m := r.mayForLabel(a, lbl)
			if prev, seen := may[lbl]; seen {
				may[lbl] = prev && m
			} else {
				may[lbl] = m
			}
		}
	}
	var out []string
	for l := range may {
		out = append(out, l)
	}
	sort.Strings(out)
	return out, may
}

func (r *Result) accepting(a core.Annot) bool {
	if r.envTab != nil {
		return r.envTab.Accepting(subst.ID(a))
	}
	return r.prop.Mon.Accepting(monoid.FuncID(a))
}

// CFG exposes the control flow graph used for checking.
func (r *Result) CFG() *minic.CFG { return r.cfg }
