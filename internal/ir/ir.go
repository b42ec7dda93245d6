// Package ir is the frontend-neutral middle layer of the toolkit: a
// Program/Function representation with stable IDs, content fingerprints
// and a call-graph SCC DAG, to which every front end (the Go translator
// in gosrc, the mini-C parser) lowers, and which the pushdown model
// checker (pdm) and the package driver (analysis) consume.
//
// The operational core of the IR is the minic kernel — statements, the
// whole-program CFG, event maps — re-exported here through type aliases
// so that downstream layers depend on a single package. What ir adds on
// top of the kernel is identity and change tracking:
//
//   - every function gets a stable ID (its index in definition order)
//     and a content Fingerprint: a hash of its normalized body together
//     with the resolved canonical name of every callee, so that any
//     edit that could change analysis results — including a change of
//     call resolution elsewhere in the package — changes the hash;
//   - the resolved call graph (calls and goroutine spawns) is condensed
//     into strongly connected components, ordered bottom-up, and each
//     function receives a Summary key combining its own fingerprint
//     with the transitive fingerprints of everything it can reach.
//
// A function's Summary therefore identifies the exact analysis input of
// the subprogram rooted at it: two programs in which a function has
// equal Summaries produce identical analysis results for that function
// as an entry. Incremental drivers key their per-entry caches by it and
// re-solve, after an edit, exactly the edited function's SCC and its
// transitive callers (see internal/analysis).
package ir

import (
	"fmt"
	"sort"
	"sync"

	"rasc/internal/minic"
)

// Kernel re-exports: the operational IR types downstream layers consume
// through this package. Aliases keep them assignment-compatible with the
// minic kernel, so front ends lowering via minic need no conversion.
type (
	// CFG is the whole-program control-flow graph.
	CFG = minic.CFG
	// Node is one CFG node.
	Node = minic.Node
	// NodeKind classifies CFG nodes.
	NodeKind = minic.NodeKind
	// ConcOp classifies a node's concurrency event.
	ConcOp = minic.ConcOp
	// FuncDef is a function definition in the kernel form.
	FuncDef = minic.FuncDef
	// CallExpr is a function-call expression.
	CallExpr = minic.CallExpr
	// EventMap maps calls to property-alphabet events.
	EventMap = minic.EventMap
	// Rule is one event-map rule.
	Rule = minic.Rule
	// Event is a matched property event.
	Event = minic.Event
)

// CFG node kinds.
const (
	NEntry  = minic.NEntry
	NExit   = minic.NExit
	NAction = minic.NAction
	NJoin   = minic.NJoin
	NSpawn  = minic.NSpawn
	NAccess = minic.NAccess
)

// Concurrency events.
const (
	ConcNone    = minic.ConcNone
	ConcSpawn   = minic.ConcSpawn
	ConcSend    = minic.ConcSend
	ConcRecv    = minic.ConcRecv
	ConcClose   = minic.ConcClose
	ConcLock    = minic.ConcLock
	ConcUnlock  = minic.ConcUnlock
	ConcRLock   = minic.ConcRLock
	ConcRUnlock = minic.ConcRUnlock
	ConcLoad    = minic.ConcLoad
	ConcStore   = minic.ConcStore
)

// SourceFile is one source file handed to a front end.
type SourceFile struct {
	// Name is the file's (display) path, used in positions and notes.
	Name string
	// Src is the file's content.
	Src string
}

// Note is a translation remark: a construct a front end's abstraction
// handles imprecisely (goto, duplicate definitions, ambiguous methods).
type Note struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Msg  string `json:"msg"`
}

func (n Note) String() string { return fmt.Sprintf("%s:%d: %s", n.File, n.Line, n.Msg) }

// Meta is the frontend-provided metadata attached to a Program: remarks
// and suppression directives that are not part of any function body.
type Meta struct {
	// Notes lists translation imprecisions, ordered by file then line.
	Notes []Note
	// Ignores maps file name -> line -> checker names named in
	// //rasc:ignore comments on that line. An empty name list means the
	// line suppresses every checker.
	Ignores map[string]map[int][]string
	// FileIgnores maps file name -> checker names named in
	// //rasc:ignore-file comments anywhere in that file.
	FileIgnores map[string][]string
	// Shared lists the package-level variables treated as shared state by
	// the concurrency checkers, sorted.
	Shared []string
}

// Function is one defined function with its identity and change-tracking
// metadata.
type Function struct {
	// ID is the function's stable identifier: its index in Program.Funcs
	// (definition order).
	ID int
	// Name is the canonical name, File/Line the definition site.
	Name string
	File string
	Line int
	// Def is the kernel definition.
	Def *FuncDef
	// Nodes is the half-open ID range [Nodes[0], Nodes[1]) of the
	// function's nodes in Program.Graph, entry marker first: the CFG lays
	// each function out contiguously, in definition order.
	Nodes [2]int
	// Callees lists the IDs of defined functions this one calls or
	// spawns, sorted and deduplicated.
	Callees []int
	// SCC is the index of the function's strongly connected component in
	// Program.SCCs.
	SCC int
	// Fingerprint hashes the function's own content: definition site,
	// parameters, normalized body, and the resolved canonical callee of
	// every call expression.
	Fingerprint Digest
	// Summary keys the analysis input of the subprogram rooted here: the
	// function's fingerprint combined with the transitive fingerprints of
	// its SCC and every SCC it can reach.
	Summary Digest
	// Component keys the function's weakly connected call-graph
	// component: the fingerprints of every function linked to it by calls
	// or spawns in either direction. It covers analyses whose flow is
	// context-insensitive — a callee's exit returns to every caller, not
	// only to callers reachable from the entry — and so leaves the
	// Summary's closure.
	Component Digest
}

// Program is a lowered, frontend-neutral program.
type Program struct {
	// MC is the kernel (minic) program the front end lowered to.
	MC *minic.Program
	// Graph is the whole-program CFG, built once at lowering time.
	Graph *CFG
	// Funcs holds one Function per defined function, indexed by ID.
	Funcs []*Function
	// ByName maps canonical function names to Functions. Kernel aliases
	// (bare method names for uniquely named methods) also resolve here.
	ByName map[string]*Function
	// SCCs lists the call graph's strongly connected components in
	// bottom-up order: every callee SCC precedes its callers.
	SCCs [][]int
	// Meta carries frontend notes and suppression directives.
	Meta

	rootsOnce sync.Once
	roots     []string
}

// New lowers a kernel program into the IR: it builds the CFG, resolves
// the call graph, condenses it into SCCs and computes fingerprints and
// summary keys. The meta block comes from the front end (zero for bare
// kernel programs).
func New(mc *minic.Program, meta Meta) (*Program, error) {
	p, err := build(mc, meta)
	if err != nil {
		return nil, err
	}
	p.fingerprint()
	return p, nil
}

// build lowers a kernel program into the IR minus fingerprints: CFG,
// call graph, SCC condensation. New and NewIncremental share it and
// differ only in how fingerprints are obtained.
func build(mc *minic.Program, meta Meta) (*Program, error) {
	cfg, err := minic.Build(mc)
	if err != nil {
		return nil, fmt.Errorf("ir: %w", err)
	}
	p := &Program{MC: mc, Graph: cfg, ByName: map[string]*Function{}, Meta: meta}
	index := map[string]int{}
	for i, fd := range mc.Funcs {
		f := &Function{ID: i, Name: fd.Name, File: fd.File, Line: fd.Line, Def: fd}
		p.Funcs = append(p.Funcs, f)
		index[fd.Name] = i
	}
	// ByName resolves canonical names and kernel aliases alike.
	for name, fd := range mc.ByName {
		if i, ok := index[fd.Name]; ok {
			p.ByName[name] = p.Funcs[i]
		}
	}
	// Callee edges: calls and goroutine spawns that resolve to a defined
	// function, read off the CFG so resolution matches the analyses.
	calleeSet := make([]map[int]bool, len(p.Funcs))
	for _, n := range cfg.Nodes {
		from, ok := index[n.Fn]
		if !ok {
			continue
		}
		if f := p.Funcs[from]; n.Kind == NEntry {
			f.Nodes = [2]int{n.ID, n.ID + 1}
		} else {
			f.Nodes[1] = n.ID + 1
		}
		if (n.Kind != NAction && n.Kind != NSpawn) || n.Call == nil {
			continue
		}
		def, ok := mc.ByName[n.Call.Name]
		if !ok {
			continue
		}
		if calleeSet[from] == nil {
			calleeSet[from] = map[int]bool{}
		}
		calleeSet[from][index[def.Name]] = true
	}
	for i, set := range calleeSet {
		for id := range set {
			p.Funcs[i].Callees = append(p.Funcs[i].Callees, id)
		}
		sort.Ints(p.Funcs[i].Callees)
	}
	p.SCCs = condense(p.Funcs)
	for ci, members := range p.SCCs {
		for _, id := range members {
			p.Funcs[id].SCC = ci
		}
	}
	return p, nil
}

// FromProgram lowers a bare kernel program with empty metadata.
func FromProgram(mc *minic.Program) (*Program, error) { return New(mc, Meta{}) }

// FromMiniC parses mini-C source and lowers it.
func FromMiniC(src string) (*Program, error) {
	mc, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return FromProgram(mc)
}

// FileOf maps a (canonical or alias) function name to its source file,
// "" when unknown.
func (p *Program) FileOf(fn string) string {
	if f, ok := p.ByName[fn]; ok {
		return f.File
	}
	return ""
}

// Roots returns the default entry functions: canonical names of defined
// functions that no other defined function calls or spawns, sorted; if
// the call graph has no such root (everything is called), every function
// is an entry.
func (p *Program) Roots() []string {
	p.rootsOnce.Do(func() {
		called := map[string]bool{}
		for _, n := range p.Graph.Nodes {
			// Spawned callees count as called: a worker started only via
			// `go worker()` is not a root.
			if (n.Kind != NAction && n.Kind != NSpawn) || n.Call == nil {
				continue
			}
			if def, ok := p.MC.ByName[n.Call.Name]; ok {
				called[def.Name] = true
			}
		}
		for _, fd := range p.MC.Funcs {
			if !called[fd.Name] {
				p.roots = append(p.roots, fd.Name)
			}
		}
		if len(p.roots) == 0 {
			for _, fd := range p.MC.Funcs {
				p.roots = append(p.roots, fd.Name)
			}
		}
		sort.Strings(p.roots)
	})
	return p.roots
}

// Reachable returns the IDs of the functions in the call-graph closure
// of entry (including entry itself), ascending. Unknown entries yield
// nil.
func (p *Program) Reachable(entry string) []int {
	f, ok := p.ByName[entry]
	if !ok {
		return nil
	}
	seen := map[int]bool{f.ID: true}
	queue := []int{f.ID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range p.Funcs[id].Callees {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Dependents returns the IDs of every function that can reach id through
// the call graph (including id itself), ascending: the functions whose
// Summary an edit of id changes.
func (p *Program) Dependents(id int) []int {
	callers := make([][]int, len(p.Funcs))
	for _, f := range p.Funcs {
		for _, c := range f.Callees {
			callers[c] = append(callers[c], f.ID)
		}
	}
	seen := map[int]bool{id: true}
	queue := []int{id}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, c := range callers[at] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}
