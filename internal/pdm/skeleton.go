// Two-phase constraint construction (§8's engineering advice applied at
// the driver level): the translation of an entry function's
// interprocedural CFG into constraints is split into a property-
// independent skeleton — node variables, intraprocedural edges,
// call/return constructors, spawn edges — built and solved once, and a
// thin per-property layer of event annotations forked on top. A driver
// checking k properties over one entry does the cubic translation work
// once instead of k times.
package pdm

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/dfa"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/spec"
	"rasc/internal/subst"
	"rasc/internal/terms"
)

// Skeleton is the property-independent half of a model-checking run for
// one entry function. It is immutable after BuildSkeleton and safe to
// share: Check forks the solved base system per property, so any number
// of goroutines may call Check concurrently.
//
// A skeleton covers only the CFG nodes of functions in the entry's
// call-graph closure (ir.Program.Reachable), the program that runs from
// the entry: pc is seeded at the entry, and every constraint a node
// contributes — intraprocedural steps, calls, spawns — targets nodes of
// the same closure, so no fact can leave it. Nodes outside the closure
// get no variable; they map to NoVar.
type Skeleton struct {
	prog  *minic.Program
	cfg   *minic.CFG
	entry string

	sys *core.System // frozen: forked, never mutated, after build
	// nodeVar maps every CFG node ID to its variable, NoVar outside the
	// closure. nodes lists the closure's node IDs ascending and is its
	// inverse: the variable of nodes[i] is VarID(i).
	nodeVar []core.VarID
	nodes   []int
	pc      core.CNode
	base    core.Stats

	deferred []deferredNode // ascending node IDs
}

// NoVar is the NodeVar entry of a CFG node outside the entry's
// call-graph closure: such nodes have no constraint variable.
const NoVar core.VarID = -1

// deferredNode is a statement whose constraint form depends on the
// property's event map (event edge vs. call constructor vs. plain
// step), deferred to the per-property phase.
type deferredNode struct {
	id     int
	callee string       // canonical defined callee name, "" if none
	cons   terms.ConsID // pre-declared call-site constructor (valid iff callee != "")
}

// skelAlgebra is the annotation algebra of the skeleton build. Only
// identity annotations occur in a skeleton, and every Algebra is
// required to represent identity as annotation 0 (monoid and
// substitution tables intern ε first), so the identity-only solve is
// valid under any later algebra a fork installs.
type skelAlgebra struct{}

func (skelAlgebra) Identity() Annot        { return 0 }
func (skelAlgebra) Then(a, b Annot) Annot  { return a | b }
func (skelAlgebra) Accepting(a Annot) bool { return false }
func (skelAlgebra) Dead(a Annot) bool      { return false }
func (skelAlgebra) String(a Annot) string  { return "ε" }

// Annot aliases core.Annot for the local algebra methods.
type Annot = core.Annot

// BuildSkeleton translates the property-independent constraints of the
// functions in entry's call-graph closure ("" means main) and solves
// them; its size scales with the closure, not the program. The IR program
// carries the kernel form and the prebuilt whole-program CFG, so a
// driver sharing one *ir.Program across entries shares the CFG too.
// maybeEvent reports whether some event map the skeleton will later be
// checked against might classify the call as a property event; such
// statements are left to the per-property phase. A nil maybeEvent defers
// every call statement (always sound, never shares call/return
// structure).
func BuildSkeleton(p *ir.Program, entry string, opts core.Options,
	maybeEvent func(call *minic.CallExpr, assignTo string) bool) (*Skeleton, error) {
	prog, cfg := p.MC, p.Graph
	if entry == "" {
		entry = "main"
	}
	entryDef, ok := prog.ByName[entry]
	if !ok {
		return nil, fmt.Errorf("pdm: entry function %q not defined", entry)
	}
	// ByName may hold aliases (gosrc registers bare method names for
	// uniquely named methods); Entry/Exit are keyed by canonical names.
	entry = entryDef.Name

	nodes := closureNodes(p, entry)

	sig := terms.NewSignature()
	pcCons := sig.MustDeclare("pc", 0)

	sys := core.NewSystem(skelAlgebra{}, sig, opts)
	sys.ReserveVars(len(nodes) + len(nodes)/8)
	nodeVar := make([]core.VarID, len(cfg.Nodes))
	for i := range nodeVar {
		nodeVar[i] = NoVar
	}
	for _, id := range nodes {
		nodeVar[id] = sys.Anon()
	}
	// CFG-node variables render their diagnostic names on demand instead
	// of interning ~one formatted string per program point per property.
	sys.SetNameFn(nodeNamer(cfg, nodes))
	pc := sys.Constant(pcCons)
	sys.AddLowerE(pc, nodeVar[cfg.Entry[entry]])

	sk := &Skeleton{prog: prog, cfg: cfg, entry: entry, sys: sys, nodeVar: nodeVar, nodes: nodes, pc: pc}
	for _, id := range nodes {
		n := cfg.Nodes[id]
		sv := nodeVar[id]
		if n.Kind == minic.NSpawn && n.Call != nil {
			// A goroutine spawn: the spawned function starts from the
			// spawn point's annotations (so events in its body are
			// reachable and carry a witness through the spawn), but its
			// exit never flows back into the spawner — the spawner
			// continues unchanged. This is a sound single-trace
			// abstraction, not a happens-before model; interleavings with
			// the spawner are not enumerated.
			if def, defined := prog.ByName[n.Call.Name]; defined {
				sys.AddVarE(sv, nodeVar[cfg.Entry[def.Name]])
			}
			for _, m := range n.Succs {
				sys.AddVarE(sv, nodeVar[m])
			}
			continue
		}
		if n.Kind == minic.NAction && n.Call != nil {
			def, defined := prog.ByName[n.Call.Name]
			if maybeEvent == nil || maybeEvent(n.Call, n.AssignTo) {
				// Event-or-not depends on the property: defer, but
				// pre-declare the call-site constructor so the
				// per-property phase never writes the shared signature.
				d := deferredNode{id: n.ID}
				if defined {
					d.callee = def.Name
					d.cons = sig.MustDeclare(fmt.Sprintf("o@%d", n.ID), 1)
				}
				sk.deferred = append(sk.deferred, d)
				continue
			}
			if defined {
				// Case 3 (§6.1): o_i(S) ⊆ F_entry and o_i^-1(F_exit) ⊆ S_i.
				oc := sig.MustDeclare(fmt.Sprintf("o@%d", n.ID), 1)
				sys.AddLowerE(sys.Cons(oc, sv), nodeVar[cfg.Entry[def.Name]])
				for _, m := range n.Succs {
					sys.AddProjE(oc, 0, nodeVar[cfg.Exit[def.Name]], nodeVar[m])
				}
				continue
			}
		}
		for _, m := range n.Succs {
			sys.AddVarE(sv, nodeVar[m])
		}
	}
	sys.Solve()
	sys.Freeze()
	sk.base = sys.Stats()
	return sk, nil
}

// closureNodes lists the CFG node IDs of the functions in entry's
// call-graph closure, ascending: Reachable lists function IDs ascending,
// and the CFG lays functions out in ID order.
func closureNodes(p *ir.Program, entry string) []int {
	fns := p.Reachable(entry)
	size := 0
	for _, id := range fns {
		size += p.Funcs[id].Nodes[1] - p.Funcs[id].Nodes[0]
	}
	nodes := make([]int, 0, size)
	for _, id := range fns {
		for n := p.Funcs[id].Nodes[0]; n < p.Funcs[id].Nodes[1]; n++ {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// nodeNamer renders the variable of CFG node nodes[v] as S<id>@fn:line;
// other variables fall back to the solver's default naming.
func nodeNamer(cfg *minic.CFG, nodes []int) func(core.VarID) string {
	return func(v core.VarID) string {
		if int(v) < len(nodes) {
			n := cfg.Nodes[nodes[v]]
			return fmt.Sprintf("S%d@%s:%d", n.ID, n.Fn, n.Line)
		}
		return ""
	}
}

// Entry returns the canonical entry function name.
func (sk *Skeleton) Entry() string { return sk.entry }

// Deferred returns the number of statements whose classification was
// deferred to the per-property phase.
func (sk *Skeleton) Deferred() int { return len(sk.deferred) }

// BaseStats returns the solver statistics of the shared skeleton itself;
// a Result's Base field holds the same value, so a driver can report the
// skeleton's size once and each property's layered work separately.
func (sk *Skeleton) BaseStats() core.Stats { return sk.base }

// CFG returns the control-flow graph the skeleton was built over.
func (sk *Skeleton) CFG() *minic.CFG { return sk.cfg }

// Obs bundles the observability options of one Check: solver and
// skeleton-layer metric hooks, and whether to extract finding
// provenance. A nil *Obs (or nil fields) disables everything; the
// result's violations are identical either way — provenance is a pure
// read of the solver's witness records.
type Obs struct {
	Solver *obs.SolverMetrics
	PDM    *obs.PDMMetrics
	// Explain attaches a derivation chain to every violation.
	Explain bool
}

// Check layers one property onto the skeleton: it forks the solved base
// system, classifies the deferred statements under the property's event
// map, solves the residue online, and collects violations exactly as
// pdm.Check does. Safe for concurrent use.
func (sk *Skeleton) Check(prop *spec.Property, events *minic.EventMap) (*Result, error) {
	return sk.CheckObs(prop, events, nil)
}

// CheckObs is Check with observability hooks attached; see Obs.
func (sk *Skeleton) CheckObs(prop *spec.Property, events *minic.EventMap, o *Obs) (*Result, error) {
	var alg core.Algebra
	var envTab *subst.Table
	if prop.IsParametric() {
		envTab = subst.NewTable(prop.Mon)
		alg = core.EnvAlgebra{Tab: envTab}
	} else {
		alg = core.FuncAlgebra{Mon: prop.Mon}
	}
	if alg.Identity() != 0 {
		return nil, fmt.Errorf("pdm: algebra must represent identity as annotation 0 to layer on a shared skeleton")
	}
	sys := sk.sys.Fork(alg)
	if o != nil {
		sys.SetMetrics(o.Solver)
		if o.PDM != nil {
			o.PDM.SkeletonForks.Inc()
		}
	}

	// annotOf computes the edge annotation for an event.
	annotOf := func(ev minic.Event) (core.Annot, error) {
		f, ok := prop.Mon.SymbolFuncByName(ev.Symbol)
		if !ok {
			return 0, fmt.Errorf("pdm: event symbol %q not in property alphabet", ev.Symbol)
		}
		if envTab == nil {
			return core.Annot(f), nil
		}
		param := prop.ParamOf[ev.Symbol]
		if param == "" || ev.Label == "" {
			return core.Annot(envTab.FromFunc(f)), nil
		}
		return core.Annot(envTab.Instantiate(param, ev.Label, f)), nil
	}

	ident := alg.Identity()
	var pruned map[string]bool
	if envTab != nil {
		var matched []minic.Event
		for _, d := range sk.deferred {
			n := sk.cfg.Nodes[d.id]
			if ev, ok := events.Match(n.Call, n.AssignTo); ok {
				matched = append(matched, ev)
			}
		}
		pruned = prunedLabels(prop, matched)
	}
	var layered []layeredEvent
	for _, d := range sk.deferred {
		n := sk.cfg.Nodes[d.id]
		sv := sk.nodeVar[n.ID]
		if ev, ok := events.Match(n.Call, n.AssignTo); ok {
			if ev.Label != "" && prop.ParamOf[ev.Symbol] != "" && pruned[ev.Label] {
				for _, m := range n.Succs {
					sys.AddVar(sv, sk.nodeVar[m], ident)
				}
				if o != nil && o.PDM != nil {
					o.PDM.PrunedEvents.Inc()
				}
				continue
			}
			a, err := annotOf(ev)
			if err != nil {
				return nil, err
			}
			layered = append(layered, layeredEvent{id: n.ID, a: a})
			for _, m := range n.Succs {
				sys.AddVar(sv, sk.nodeVar[m], a)
				if o != nil && o.PDM != nil {
					o.PDM.LayeredEvents.Inc()
				}
			}
			continue
		}
		if d.callee != "" {
			sys.AddLowerE(sys.Cons(d.cons, sv), sk.nodeVar[sk.cfg.Entry[d.callee]])
			for _, m := range n.Succs {
				sys.AddProjE(d.cons, 0, sk.nodeVar[sk.cfg.Exit[d.callee]], sk.nodeVar[m])
			}
			continue
		}
		for _, m := range n.Succs {
			sys.AddVar(sv, sk.nodeVar[m], ident)
		}
	}
	sys.Solve()
	if o != nil && o.Solver != nil {
		sys.FlushSizeMetrics()
	}

	res := &Result{
		Sys:     sys,
		Base:    sk.base,
		NodeVar: sk.nodeVar,
		prog:    sk.prog,
		cfg:     sk.cfg,
		nodes:   sk.nodes,
		prop:    prop,
		envTab:  envTab,
		layered: layered,
		alg:     alg,
		explain: o != nil && o.Explain,
	}
	res.PN = sys.PNReach(sk.pc)
	res.collectViolations(alg)
	return res, nil
}

// prunedLabels is the per-label viability filter for parametric
// properties. A catch-all event rule can match receivers that have
// nothing to do with the property — a counting waitgroup checker's
// `Add` rule matching every metrics counter in the program, say — and
// each distinct label mints fresh environment entries that the solver
// must intern, compose, and propagate; on method-name-heavy trees that
// is the dominant cost of a parametric check.
//
// An entry bound to label l is built exclusively from l's own symbol
// functions plus those of unlabeled events (which reach every entry
// through the residual), and every consumer of entries — violation
// collection, exit-leak queries — tests them with Mon.Accepting, i.e.
// applied at the machine's start state. So when no word over that
// symbol set can drive the machine from start to an accept state, label
// l can never produce a finding, and its events may be layered as
// identity edges without changing any result.
//
// The reasoning needs entries to track exactly one label, so pruning is
// restricted to single-parameter properties: with one parameter, two
// entries for different labels conflict and never merge, whereas
// multi-parameter entries could mix symbol sets across labels. Returns
// nil (prune nothing) when the property is multi-parameter or an event
// symbol is not in the machine's alphabet (the layering loop surfaces
// that error).
func prunedLabels(prop *spec.Property, matched []minic.Event) map[string]bool {
	params := map[string]bool{}
	for _, p := range prop.ParamOf {
		if p != "" {
			params[p] = true
		}
	}
	if len(params) != 1 {
		return nil
	}
	mach := prop.Mon.M
	global := map[dfa.Symbol]bool{}
	labelSyms := map[string]map[dfa.Symbol]bool{}
	for _, ev := range matched {
		sym, ok := mach.Alpha.Lookup(ev.Symbol)
		if !ok {
			return nil
		}
		if prop.ParamOf[ev.Symbol] == "" || ev.Label == "" {
			global[sym] = true
			continue
		}
		set := labelSyms[ev.Label]
		if set == nil {
			set = map[dfa.Symbol]bool{}
			labelSyms[ev.Label] = set
		}
		set[sym] = true
	}
	pruned := map[string]bool{}
	for lbl, syms := range labelSyms {
		for s := range global {
			syms[s] = true
		}
		if !acceptReachable(mach, syms) {
			pruned[lbl] = true
		}
	}
	return pruned
}

// acceptReachable reports whether some word over syms drives m from its
// start state to an accept state.
func acceptReachable(m *dfa.DFA, syms map[dfa.Symbol]bool) bool {
	if m.Accept[m.Start] {
		return true
	}
	visited := make([]bool, m.NumStates)
	visited[m.Start] = true
	queue := []dfa.State{m.Start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for sym := range syms {
			t := m.Step(s, sym)
			if t == dfa.None || visited[t] {
				continue
			}
			if m.Accept[t] {
				return true
			}
			visited[t] = true
			queue = append(queue, t)
		}
	}
	return false
}
