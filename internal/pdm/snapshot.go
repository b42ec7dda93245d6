package pdm

import (
	"fmt"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/snapshot"
	"rasc/internal/terms"
)

// Skeleton snapshot sections; core owns ids below 100. The skeleton
// layer stores only what BuildSkeleton computed beyond the solved
// System: the entry name, the pc node, the CFG-node variable map and
// the deferred-statement list. Program and CFG are not serialized — a
// snapshot is only valid against the *ir.Program it was built from, and
// the cache layer keys snapshots by the entry's summary digest to
// guarantee that.
const (
	secPDMMeta     = 100 // pc CNode, entry strRef
	secPDMStrBlob  = 101
	secPDMStrOffs  = 102
	secPDMNodeVar  = 103 // VarID per CFG node, snapNoVar outside the closure
	secPDMDeferred = 104 // (nodeID, calleeRef+1 or 0, consID) triples, ascending nodeID
)

// snapNoVar encodes NoVar in the node-var section.
const snapNoVar = ^uint32(0)

// Snapshot serializes the skeleton — the frozen solved System plus the
// skeleton-layer tables — into a self-validating container. The result
// is deterministic: equal skeletons produce equal bytes.
func (sk *Skeleton) Snapshot() []byte {
	w := snapshot.NewWriter()
	sk.sys.EncodeSnapshot(w)
	sb := snapshot.NewStringBuilder()
	w.Uint32s(secPDMMeta, []uint32{uint32(sk.pc), sb.Ref(sk.entry)})
	nodeVar := make([]uint32, len(sk.nodeVar))
	for i, v := range sk.nodeVar {
		nodeVar[i] = snapNoVar
		if v != NoVar {
			nodeVar[i] = uint32(v)
		}
	}
	w.Uint32s(secPDMNodeVar, nodeVar)
	def := make([]uint32, 0, 3*len(sk.deferred))
	for _, d := range sk.deferred {
		callee := uint32(0)
		if d.callee != "" {
			callee = sb.Ref(d.callee) + 1
		}
		def = append(def, uint32(d.id), callee, uint32(d.cons))
	}
	w.Uint32s(secPDMDeferred, def)
	sb.Flush(w, secPDMStrBlob, secPDMStrOffs)
	return w.Finish()
}

// LoadSkeleton reconstructs a Skeleton for entry over p from a Snapshot,
// skipping BuildSkeleton's translation and solve entirely: the solved
// base layer is decoded straight out of the byte buffer. The decoded
// system is checked against the skeleton contract (identity-only
// annotations, matching Options) and every cross-reference into p's CFG
// and function table is validated, so a snapshot taken from a different
// program version fails loudly instead of yielding wrong results — but
// callers are expected to key snapshots by the entry's summary digest
// and options so that mismatches are cache misses, not load errors.
//
// Errors wrap snapshot.ErrVersion for format-version skew and (for
// structural damage) snapshot.ErrCorrupt; both must demote the caller
// to a live BuildSkeleton.
func LoadSkeleton(data []byte, p *ir.Program, entry string, opts core.Options) (*Skeleton, error) {
	prog, cfg := p.MC, p.Graph
	if entry == "" {
		entry = "main"
	}
	entryDef, ok := prog.ByName[entry]
	if !ok {
		return nil, fmt.Errorf("pdm: entry function %q not defined", entry)
	}
	entry = entryDef.Name

	r, err := snapshot.NewReader(data)
	if err != nil {
		return nil, err
	}
	sys, err := core.DecodeSystem(r, skelAlgebra{}, opts, true)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: pdm: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	strs, err := snapshot.ReadStrings(r, secPDMStrBlob, secPDMStrOffs)
	if err != nil {
		return nil, err
	}
	meta, err := r.Uint32s(secPDMMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 2 {
		return nil, bad("meta section has %d words, want 2", len(meta))
	}
	pc := meta[0]
	if int(pc) >= sys.NumConsNodes() {
		return nil, bad("pc node %d out of range", pc)
	}
	if sys.Sig.Name(sys.ConsOf(core.CNode(pc))) != "pc" {
		return nil, bad("pc node %d is not the pc constant", pc)
	}
	snapEntry, err := strs.At(meta[1])
	if err != nil {
		return nil, err
	}
	if snapEntry != entry {
		return nil, bad("snapshot is for entry %q, want %q", snapEntry, entry)
	}

	// The node-var section must be exactly the layout BuildSkeleton
	// produces: the closure's nodes own variables 0..k-1 in ascending
	// node order, and every other node holds the sentinel.
	nodes := closureNodes(p, entry)
	if len(nodes) > sys.NumVars() {
		return nil, bad("closure has %d nodes, system has %d vars", len(nodes), sys.NumVars())
	}
	nodeVarWords, err := r.Uint32s(secPDMNodeVar)
	if err != nil {
		return nil, err
	}
	if len(nodeVarWords) != len(cfg.Nodes) {
		return nil, bad("node-var section has %d entries, CFG has %d nodes", len(nodeVarWords), len(cfg.Nodes))
	}
	nodeVar := make([]core.VarID, len(nodeVarWords))
	next := 0 // index into nodes of the next closure node
	for i, v := range nodeVarWords {
		inClosure := next < len(nodes) && nodes[next] == i
		switch {
		case v == snapNoVar && !inClosure:
			nodeVar[i] = NoVar
			continue
		case v == snapNoVar:
			return nil, bad("closure node %d has no variable", i)
		case int(v) >= sys.NumVars():
			return nil, bad("node %d maps to variable %d out of range (%d vars)", i, v, sys.NumVars())
		case !inClosure:
			return nil, bad("node %d outside the closure maps to variable %d", i, v)
		case int(v) != next:
			return nil, bad("node %d maps to variable %d, want %d", i, v, next)
		}
		nodeVar[i] = core.VarID(v)
		next++
	}

	def, err := r.Uint32s(secPDMDeferred)
	if err != nil {
		return nil, err
	}
	if len(def)%3 != 0 {
		return nil, bad("deferred section has %d words, not triples", len(def))
	}
	deferred := make([]deferredNode, len(def)/3)
	for i := range deferred {
		id, calleeRef, cons := def[3*i], def[3*i+1], def[3*i+2]
		if int(id) >= len(cfg.Nodes) || nodeVar[id] == NoVar {
			return nil, bad("deferred node %d outside the closure", id)
		}
		if i > 0 && int(id) <= deferred[i-1].id {
			return nil, bad("deferred node %d out of order", id)
		}
		n := cfg.Nodes[id]
		if n.Kind != minic.NAction || n.Call == nil {
			return nil, bad("deferred node %d is not a call statement", id)
		}
		// The callee must be the call's own resolution: CheckObs wires
		// the call to that function's entry and exit.
		want := ""
		if fd, ok := prog.ByName[n.Call.Name]; ok {
			want = fd.Name
		}
		d := deferredNode{id: int(id)}
		if calleeRef != 0 {
			callee, err := strs.At(calleeRef - 1)
			if err != nil {
				return nil, err
			}
			d.callee = callee
			if int(cons) >= sys.Sig.Size() || sys.Sig.Arity(terms.ConsID(cons)) != 1 {
				return nil, bad("deferred node %d has invalid call constructor %d", id, cons)
			}
			d.cons = terms.ConsID(cons)
		}
		if d.callee != want {
			return nil, bad("deferred node %d names callee %q, call resolves to %q", id, d.callee, want)
		}
		deferred[i] = d
	}

	// Reinstall the on-demand renderer BuildSkeleton uses for CFG-node
	// variables; closures do not serialize, but this one is derived
	// entirely from the CFG and the closure.
	sys.SetNameFn(nodeNamer(cfg, nodes))

	return &Skeleton{
		prog:     prog,
		cfg:      cfg,
		entry:    entry,
		sys:      sys,
		nodeVar:  nodeVar,
		nodes:    nodes,
		pc:       core.CNode(pc),
		base:     sys.Stats(),
		deferred: deferred,
	}, nil
}
