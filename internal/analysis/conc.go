package analysis

import (
	"sort"
	"strings"
	"sync"

	"rasc/internal/minic"
	"rasc/internal/obs"
)

// This file is the driver's concurrency model. The translation marks
// goroutine spawns (NSpawn), per-object lock events (ConcLock/...),
// channel operations and shared-variable accesses (NAccess) in the CFG;
// here those are lifted to an abstraction suitable for lockset checking:
//
//   - a goroutine abstraction: one goroutine per static spawn site
//     reachable from the entry (plus the entry goroutine g0), marked
//     multi-instance when its spawn sits in a loop or in a
//     multi-instance spawner;
//   - a flow relation over the interprocedural CFG in which a spawn
//     node continues to its successors (the spawner's flow) and never
//     returns from the spawned callee (the child's flow starts fresh at
//     the callee's entry);
//   - a lockset dataflow over that relation, per goroutine root: the
//     set of (lock, mode) pairs possibly held at each node, seeded with
//     the empty lockset (a new goroutine holds nothing). It runs once
//     per root function, however many entries and spawn sites share the
//     root, and keeps the locksets only at the event nodes the checkers
//     read (shared accesses and Lock/RLock acquisitions).
//
// Soundness caveats (also in DESIGN.md): there is no happens-before
// order — an access before a spawn is treated as concurrent with the
// spawned goroutine, channel synchronization establishes no ordering,
// and call/return flow is context-insensitive (locksets can flow from
// one call site's entry to another's return). The model over-reports
// rather than misses: every lock that MUST be held is in the
// intersection of a node's locksets.

// lockHold is one held lock with its mode (write for Lock, read for
// RLock). Two read holds of the same lock do not exclude each other.
type lockHold struct {
	Name  string
	Write bool
}

// lockset is a canonically sorted set of holds.
type lockset []lockHold

func (ls lockset) key() string {
	var b strings.Builder
	for _, h := range ls {
		b.WriteString(h.Name)
		if h.Write {
			b.WriteString("/w;")
		} else {
			b.WriteString("/r;")
		}
	}
	return b.String()
}

// with returns ls ∪ {h}, canonical.
func (ls lockset) with(h lockHold) lockset {
	for _, x := range ls {
		if x == h {
			return ls
		}
	}
	out := make(lockset, 0, len(ls)+1)
	out = append(out, ls...)
	out = append(out, h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return !out[i].Write && out[j].Write
	})
	return out
}

// without returns ls \ {h}.
func (ls lockset) without(h lockHold) lockset {
	for i, x := range ls {
		if x == h {
			out := make(lockset, 0, len(ls)-1)
			out = append(out, ls[:i]...)
			out = append(out, ls[i+1:]...)
			return out
		}
	}
	return ls
}

// transfer applies a node's lock event to the lockset holding BEFORE the
// node (events happen on outgoing edges, matching §6.1's constraint
// scheme).
func transfer(n *minic.Node, ls lockset) lockset {
	switch n.Conc {
	case minic.ConcLock:
		return ls.with(lockHold{n.ConcArg, true})
	case minic.ConcRLock:
		return ls.with(lockHold{n.ConcArg, false})
	case minic.ConcUnlock:
		return ls.without(lockHold{n.ConcArg, true})
	case minic.ConcRUnlock:
		return ls.without(lockHold{n.ConcArg, false})
	}
	return ls
}

// isLockOp reports whether a node's event changes the held lockset.
func isLockOp(op minic.ConcOp) bool {
	switch op {
	case minic.ConcLock, minic.ConcRLock, minic.ConcUnlock, minic.ConcRUnlock:
		return true
	}
	return false
}

// nodeSet is a dense set of CFG node IDs.
type nodeSet []uint64

func newNodeSet(n int) nodeSet { return make(nodeSet, (n+63)/64) }

func (s nodeSet) mark(i int)        { s[i/64] |= 1 << (i % 64) }
func (s nodeSet) marked(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// concModel is the concurrency model of a Package: the goroutine flow
// relation and the event lists, built once, plus facts memoized per
// goroutine root and goroutine lists memoized per entry. Both memos are
// filled under a sync.Once per key, so concurrent jobs compute each
// root and each entry exactly once.
type concModel struct {
	cfg *minic.CFG
	// flowSuccs is the single-goroutine flow relation: intraprocedural
	// edges, call site -> callee entry, callee exit -> every return site
	// (context-insensitive). Spawn nodes flow only to their successors.
	flowSuccs [][]int
	// spawns, accesses and acquires are the spawn, shared-access and
	// Lock/RLock nodes in ascending ID order; events is accesses ∪
	// acquires, the nodes whose locksets the checkers read.
	spawns, accesses, acquires, events []int

	mu      sync.Mutex
	roots   map[string]*rootFacts
	entries map[string]*entryModel
}

// rootFacts are the model's facts about one goroutine root function.
// Every goroutine starts holding no lock, so they depend only on the
// root: an entry's g0 and every goroutine spawned on the same function
// share them.
type rootFacts struct {
	once sync.Once
	// reach is the set of nodes a goroutine on this root may execute.
	reach nodeSet
	// locks maps each reached event node to the locksets possibly held
	// before it.
	locks map[int][]lockset

	// parent is a BFS tree over the flow relation for witness paths
	// (-1 at the root's entry), built on first use: only spawners and
	// roots with findings need one.
	parentOnce sync.Once
	parent     []int32
}

// entryModel is the memoized goroutine list of one entry function,
// shared by the race and lockorder jobs of that entry.
type entryModel struct {
	once sync.Once
	gs   []*goroutine
}

// concModel builds (once) the concurrency model of the package.
func (p *Package) concModel() *concModel {
	p.concOnce.Do(func() {
		cfg := p.Prog.Graph
		m := &concModel{
			cfg:       cfg,
			flowSuccs: make([][]int, len(cfg.Nodes)),
			roots:     map[string]*rootFacts{},
			entries:   map[string]*entryModel{},
		}
		retSites := map[string][]int{}
		callee := func(n *minic.Node) *minic.FuncDef {
			if n.Call == nil {
				return nil
			}
			def, ok := cfg.Prog.ByName[n.Call.Name]
			if !ok {
				return nil
			}
			return def
		}
		for _, n := range cfg.Nodes {
			if n.Kind == minic.NAction {
				if def := callee(n); def != nil {
					retSites[def.Name] = append(retSites[def.Name], n.Succs...)
				}
			}
		}
		for _, n := range cfg.Nodes {
			switch {
			case n.Kind == minic.NAction && callee(n) != nil:
				m.flowSuccs[n.ID] = []int{cfg.Entry[callee(n).Name]}
			case n.Kind == minic.NExit:
				m.flowSuccs[n.ID] = retSites[n.Fn]
			default:
				m.flowSuccs[n.ID] = n.Succs
			}
			access := n.Kind == minic.NAccess
			acquire := n.Conc == minic.ConcLock || n.Conc == minic.ConcRLock
			if n.Kind == minic.NSpawn {
				m.spawns = append(m.spawns, n.ID)
			}
			if access {
				m.accesses = append(m.accesses, n.ID)
			}
			if acquire {
				m.acquires = append(m.acquires, n.ID)
			}
			if access || acquire {
				m.events = append(m.events, n.ID)
			}
		}
		p.conc = m
	})
	return p.conc
}

// facts returns root's facts, computing them on first use. mm (nil OK)
// counts the work of a computation.
func (m *concModel) facts(root string, mm *obs.ModelMetrics) *rootFacts {
	m.mu.Lock()
	f := m.roots[root]
	if f == nil {
		f = &rootFacts{}
		m.roots[root] = f
	}
	m.mu.Unlock()
	f.once.Do(func() {
		reach, locks, states := m.locksets(m.cfg.Entry[root])
		f.reach, f.locks = reach, locks
		if mm != nil {
			mm.Roots.Inc()
			mm.States.Add(states)
		}
	})
	if f.reach == nil {
		panic("concurrency model of " + root + " failed in an earlier job")
	}
	return f
}

// locksets runs the lockset dataflow from node start with the empty
// seed (a new goroutine holds nothing). States are (node, lockset-ID)
// pairs over a per-run intern table, visited in BFS order. It returns
// the reached nodes, the locksets at the reached event nodes and the
// number of states visited.
func (m *concModel) locksets(start int) (nodeSet, map[int][]lockset, int64) {
	nodes := m.cfg.Nodes
	// Lockset ID i is sets[i]; ID 0 is the empty lockset.
	sets := []lockset{nil}
	ids := map[string]int32{"": 0}
	// A transfer depends only on the node's lock event and the incoming
	// lockset, so it is memoized across nodes.
	type step struct {
		op  minic.ConcOp
		arg string
		in  int32
	}
	next := map[step]int32{}
	// at[n] is 1 + the one ID reaching n (0: not reached), or, once a
	// second ID arrives — rarely — -(1 + i) for the ID list multi[i].
	at := make([]int32, len(nodes))
	var multi [][]int32
	reach := newNodeSet(len(nodes))
	visit := func(n int, id int32) bool {
		switch a := at[n]; {
		case a == 0:
			at[n] = id + 1
			reach.mark(n)
			return true
		case a == id+1:
			return false
		case a > 0:
			at[n] = -int32(len(multi)) - 1
			multi = append(multi, []int32{a - 1, id})
			return true
		}
		i := -at[n] - 1
		for _, x := range multi[i] {
			if x == id {
				return false
			}
		}
		multi[i] = append(multi[i], id)
		return true
	}
	type state struct{ node, ls int32 }
	visit(start, 0)
	queue := []state{{int32(start), 0}}
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		out := st.ls
		if n := nodes[st.node]; isLockOp(n.Conc) {
			k := step{n.Conc, n.ConcArg, st.ls}
			id, ok := next[k]
			if !ok {
				ls := transfer(n, sets[st.ls])
				key := ls.key()
				if id, ok = ids[key]; !ok {
					id = int32(len(sets))
					ids[key] = id
					sets = append(sets, ls)
				}
				next[k] = id
			}
			out = id
		}
		for _, s := range m.flowSuccs[st.node] {
			if visit(s, out) {
				queue = append(queue, state{int32(s), out})
			}
		}
	}
	locks := map[int][]lockset{}
	for _, n := range m.events {
		switch a := at[n]; {
		case a > 0:
			locks[n] = []lockset{sets[a-1]}
		case a < 0:
			for _, id := range multi[-a-1] {
				locks[n] = append(locks[n], sets[id])
			}
		}
	}
	return reach, locks, int64(len(queue))
}

// goroutine is one abstract goroutine: the entry goroutine, or one
// static spawn site.
type goroutine struct {
	ID    int
	Root  string      // root function (canonical name)
	Spawn *minic.Node // nil for the entry goroutine
	Multi bool        // more than one instance may run concurrently
	// Prefix is the witness trace from the program entry to this
	// goroutine's spawn statement (empty for the entry goroutine).
	Prefix []TraceStep
	facts  *rootFacts
}

// parents returns g's root's BFS tree, building it on first use. The
// BFS is the one that defines witness paths: FIFO from the root's
// entry, successors in flow-relation order, first discovery wins.
func (m *concModel) parents(g *goroutine) []int32 {
	f := g.facts
	f.parentOnce.Do(func() {
		parent := make([]int32, len(m.cfg.Nodes))
		for i := range parent {
			parent[i] = -2 // not discovered
		}
		start := m.cfg.Entry[g.Root]
		parent[start] = -1
		queue := []int{start}
		for qi := 0; qi < len(queue); qi++ {
			id := queue[qi]
			for _, s := range m.flowSuccs[id] {
				if parent[s] == -2 {
					parent[s] = int32(id)
					queue = append(queue, s)
				}
			}
		}
		f.parent = parent
	})
	return f.parent
}

// path returns the witness trace from the goroutine's root entry to node
// id, keeping entry hops and event nodes.
func (m *concModel) path(p *Package, g *goroutine, id int) []TraceStep {
	parent := m.parents(g)
	var ids []int
	for at := int32(id); at >= 0; at = parent[at] {
		ids = append(ids, int(at))
	}
	out := append([]TraceStep(nil), g.Prefix...)
	for i := len(ids) - 1; i >= 0; i-- {
		n := m.cfg.Nodes[ids[i]]
		switch n.Kind {
		case minic.NEntry:
			out = append(out, TraceStep{File: p.fileOf(n.Fn), Fn: n.Fn, Line: n.Line, Enter: true})
		case minic.NAction, minic.NSpawn, minic.NAccess:
			out = append(out, TraceStep{File: p.fileOf(n.Fn), Fn: n.Fn, Line: n.Line})
		}
	}
	return out
}

// inCycle reports whether node id can reach itself through the flow
// relation (a spawn in a loop or in a recursive function spawns many
// instances).
func (m *concModel) inCycle(id int) bool {
	seen := map[int]bool{}
	queue := append([]int(nil), m.flowSuccs[id]...)
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if at == id {
			return true
		}
		if seen[at] {
			continue
		}
		seen[at] = true
		queue = append(queue, m.flowSuccs[at]...)
	}
	return false
}

// goroutines returns the abstract goroutines of an entry function,
// computing them (and their roots' facts) on first use: g0 (the entry
// itself) plus one per reachable static spawn site, each owned by the
// first goroutine (in discovery order) that reaches it. mm (nil OK)
// counts the model's work.
func (m *concModel) goroutines(p *Package, entry string, mm *obs.ModelMetrics) []*goroutine {
	m.mu.Lock()
	e := m.entries[entry]
	if e == nil {
		e = &entryModel{}
		m.entries[entry] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.gs = m.enumerate(p, entry, mm) })
	if e.gs == nil {
		panic("concurrency model of entry " + entry + " failed in an earlier job")
	}
	return e.gs
}

func (m *concModel) enumerate(p *Package, entry string, mm *obs.ModelMetrics) []*goroutine {
	out := []*goroutine{{ID: 0, Root: entry, facts: m.facts(entry, mm)}}
	claimed := map[int]bool{}
	for qi := 0; qi < len(out); qi++ {
		g := out[qi]
		for _, id := range m.spawns {
			if claimed[id] || !g.facts.reach.marked(id) {
				continue
			}
			n := m.cfg.Nodes[id]
			def, ok := m.cfg.Prog.ByName[n.Call.Name]
			if !ok {
				continue // external spawn: body unknown
			}
			claimed[id] = true
			// The prefix ends at the spawn statement; the child's own
			// path starts with its root's entry hop.
			out = append(out, &goroutine{
				ID:     len(out),
				Root:   def.Name,
				Spawn:  n,
				Multi:  g.Multi || m.inCycle(id),
				Prefix: m.path(p, g, id),
				facts:  m.facts(def.Name, mm),
			})
		}
	}
	return out
}

// mustHold intersects a node's locksets: the locks held on EVERY path
// reaching it.
func mustHold(sets []lockset) lockset {
	if len(sets) == 0 {
		return nil
	}
	out := sets[0]
	for _, ls := range sets[1:] {
		var next lockset
		for _, h := range out {
			for _, x := range ls {
				if x == h {
					next = append(next, h)
					break
				}
			}
		}
		out = next
		if len(out) == 0 {
			break
		}
	}
	return out
}

// excluded reports whether two critical sections are mutually exclusive:
// some lock is must-held by both, with at least one side in write mode.
func excluded(a, b lockset) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Name == y.Name && (x.Write || y.Write) {
				return true
			}
		}
	}
	return false
}

// access is one shared-variable access in one goroutine.
type access struct {
	g    *goroutine
	node *minic.Node
	must lockset
}

// raceDiagnostics is the lockset-based data-race checker: two accesses
// to the same shared variable, at least one a write, from goroutines
// that may run concurrently, with no common must-held lock. One finding
// is reported per variable (the first racy pair in node order), carrying
// a witness trace per goroutine.
func raceDiagnostics(pkg *Package, c *Checker, entry string) []Diagnostic {
	m := pkg.concModel()
	gs := m.goroutines(pkg, entry, nil)
	if len(gs) == 1 {
		return nil // single goroutine: no races
	}
	byVar := map[string][]access{}
	var vars []string
	for _, g := range gs {
		for _, id := range m.accesses {
			if !g.facts.reach.marked(id) {
				continue
			}
			n := m.cfg.Nodes[id]
			if _, seen := byVar[n.ConcArg]; !seen {
				vars = append(vars, n.ConcArg)
			}
			byVar[n.ConcArg] = append(byVar[n.ConcArg], access{g: g, node: n, must: mustHold(g.facts.locks[id])})
		}
	}
	sort.Strings(vars)
	var out []Diagnostic
	for _, v := range vars {
		accs := byVar[v]
		if d, ok := firstRace(pkg, m, c, entry, v, accs); ok {
			out = append(out, d)
		}
	}
	return out
}

// firstRace scans the accesses of one variable for the first racy pair.
func firstRace(pkg *Package, m *concModel, c *Checker, entry, v string, accs []access) (Diagnostic, bool) {
	for i, a := range accs {
		for j := i; j < len(accs); j++ {
			b := accs[j]
			write := a.node.Conc == minic.ConcStore || b.node.Conc == minic.ConcStore
			if !write {
				continue
			}
			// Concurrent: different goroutines, or two instances of a
			// multi-instance goroutine. The same single access races
			// with itself only when its goroutine is multi-instance.
			if a.g == b.g && !a.g.Multi {
				continue
			}
			if i == j && !a.g.Multi {
				continue
			}
			if excluded(a.must, b.must) {
				continue
			}
			d := Diagnostic{
				Checker:     c.Name,
				Severity:    c.Severity,
				File:        pkg.fileOf(a.node.Fn),
				Line:        a.node.Line,
				Message:     c.message(v),
				Label:       v,
				Entry:       entry,
				Trace:       m.path(pkg, a.g, a.node.ID),
				SecondTrace: m.path(pkg, b.g, b.node.ID),
			}
			return d, true
		}
	}
	return Diagnostic{}, false
}

// lockOrderDiagnostics is the deadlock-order checker: it records, per
// goroutine, every "acquire L while holding M" edge seen by the lockset
// dataflow, and reports each inverted pair (A taken before B on one
// path, B before A on another) once, with a witness trace per acquire
// site. Read acquisitions participate: an RLock waiting behind a writer
// deadlocks the same way.
func lockOrderDiagnostics(pkg *Package, c *Checker, entry string) []Diagnostic {
	m := pkg.concModel()
	gs := m.goroutines(pkg, entry, nil)
	type witness struct {
		g    *goroutine
		node *minic.Node
	}
	edges := map[string]map[string]witness{} // held -> acquired -> first witness
	var heldNames []string
	for _, g := range gs {
		for _, id := range m.acquires {
			if !g.facts.reach.marked(id) {
				continue
			}
			n := m.cfg.Nodes[id]
			for _, set := range g.facts.locks[id] {
				for _, h := range set {
					if h.Name == n.ConcArg {
						continue
					}
					if edges[h.Name] == nil {
						edges[h.Name] = map[string]witness{}
						heldNames = append(heldNames, h.Name)
					}
					if _, seen := edges[h.Name][n.ConcArg]; !seen {
						edges[h.Name][n.ConcArg] = witness{g, n}
					}
				}
			}
		}
	}
	sort.Strings(heldNames)
	var out []Diagnostic
	for _, a := range heldNames {
		for _, b := range sortedKeys(edges[a]) {
			if a >= b {
				continue // report each unordered pair once, from the smaller name
			}
			back, ok := edges[b]
			if !ok {
				continue
			}
			inv, ok := back[a]
			if !ok {
				continue
			}
			fwd := edges[a][b]
			label := a + " and " + b
			out = append(out, Diagnostic{
				Checker:     c.Name,
				Severity:    c.Severity,
				File:        pkg.fileOf(fwd.node.Fn),
				Line:        fwd.node.Line,
				Message:     c.message(label),
				Label:       label,
				Entry:       entry,
				Trace:       m.path(pkg, fwd.g, fwd.node.ID),
				SecondTrace: m.path(pkg, inv.g, inv.node.ID),
			})
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
