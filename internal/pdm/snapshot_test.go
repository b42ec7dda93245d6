package pdm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/snapshot"
	"rasc/internal/spec"
)

const snapTestSrc = `
void main() {
    int f = open("a");
    if (f) { use(f); helper(f); }
    while (f) { int g = open("b"); close(g); }
    close(f);
}
void helper(int f) {
    use(f);
    int g = open("c");
    close(g);
}`

func snapTestProp(t *testing.T) (*spec.Property, *minic.EventMap) {
	t.Helper()
	prop := spec.MustCompile(`
start state Closed :
    | open -> Open;
state Open :
    | close -> Closed
    | use_closed -> Error;
accept state Error;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelFromAssign: true},
		{Callee: "close", ArgIndex: 0, Symbol: "close", LabelArg: 0},
	}}
	return prop, events
}

func buildSnapTestSkeleton(t *testing.T) (*ir.Program, *Skeleton) {
	t.Helper()
	prog, err := ir.FromMiniC(snapTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(prog, "main", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog, sk
}

// A snapshot-loaded skeleton must be indistinguishable from the live
// one: same entry, same base stats, same deferred count, and identical
// Check results — violations, traces, provenance — for a real property.
func TestSkeletonSnapshotRoundTrip(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	loaded, err := LoadSkeleton(data, prog, "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entry() != live.Entry() {
		t.Fatalf("entry %q, want %q", loaded.Entry(), live.Entry())
	}
	if loaded.BaseStats() != live.BaseStats() {
		t.Fatalf("base stats %+v, want %+v", loaded.BaseStats(), live.BaseStats())
	}
	if loaded.Deferred() != live.Deferred() {
		t.Fatalf("deferred %d, want %d", loaded.Deferred(), live.Deferred())
	}

	prop, events := snapTestProp(t)
	for _, explain := range []bool{false, true} {
		o := &Obs{Explain: explain}
		want, err := live.CheckObs(prop, events, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.CheckObs(prop, events, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Violations, want.Violations) {
			t.Fatalf("explain=%v: violations diverge:\n got %+v\nwant %+v", explain, got.Violations, want.Violations)
		}
		if got.Sys.Stats() != want.Sys.Stats() {
			t.Fatalf("explain=%v: stats %+v, want %+v", explain, got.Sys.Stats(), want.Sys.Stats())
		}
		if got.Sys.Stats().Minus(got.Base) != want.Sys.Stats().Minus(want.Base) {
			t.Fatalf("explain=%v: layered deltas diverge", explain)
		}
	}

	// The snapshot encoding is deterministic and stable across a load.
	if !bytes.Equal(live.Snapshot(), data) {
		t.Fatal("re-snapshotting the live skeleton is not byte-stable")
	}
	if !bytes.Equal(loaded.Snapshot(), data) {
		t.Fatal("snapshotting the loaded skeleton does not reproduce the bytes")
	}
}

// A snapshot must fail to load against the wrong program or entry, and
// under different solver options.
func TestSkeletonSnapshotKeyMismatches(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()

	if _, err := LoadSkeleton(data, prog, "helper", core.Options{}); err == nil {
		t.Fatal("load under a different entry succeeded")
	}
	if _, err := LoadSkeleton(data, prog, "main", core.Options{NoProjMerge: true}); err == nil {
		t.Fatal("load under different options succeeded")
	}
	other, err := ir.FromMiniC(`void main() { int f = open("a"); close(f); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSkeleton(data, other, "main", core.Options{}); err == nil {
		t.Fatal("load against a different program succeeded")
	}
}

// A scoped skeleton — helper's closure leaves main's nodes without
// variables — round-trips through its sentinel entries, and the decoder
// rejects a node-var section that disagrees with the entry's closure.
func TestSkeletonSnapshotSentinel(t *testing.T) {
	prog, err := ir.FromMiniC(snapTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	live, err := BuildSkeleton(prog, "helper", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var outside, inside int // a node outside helper's closure, one inside
	for id, v := range live.nodeVar {
		if v == NoVar {
			outside = id
		} else {
			inside = id
		}
	}
	if live.nodeVar[outside] != NoVar {
		t.Fatal("helper's skeleton covers every node")
	}
	data := live.Snapshot()
	loaded, err := LoadSkeleton(data, prog, "helper", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.nodeVar, live.nodeVar) || !reflect.DeepEqual(loaded.nodes, live.nodes) {
		t.Fatal("node-var map does not round-trip")
	}
	if got, want := loaded.sys.VarName(live.nodeVar[inside]), live.sys.VarName(live.nodeVar[inside]); got != want {
		t.Fatalf("loaded skeleton renders %q, want %q", got, want)
	}

	for name, mutate := range map[string]func(nv []core.VarID){
		"sentinel on a closure node":     func(nv []core.VarID) { nv[inside] = NoVar },
		"variable outside the closure":   func(nv []core.VarID) { nv[outside] = 0 },
		"variable out of range":          func(nv []core.VarID) { nv[inside] = core.VarID(live.sys.NumVars()) },
		"closure variables out of order": func(nv []core.VarID) { nv[inside] = nv[inside] - 1 },
	} {
		bad := *live
		bad.nodeVar = append([]core.VarID(nil), live.nodeVar...)
		mutate(bad.nodeVar)
		if _, err := LoadSkeleton(bad.Snapshot(), prog, "helper", core.Options{}); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// Version-skewed containers are classified as snapshot.ErrVersion so
// cache layers can count them separately from corruption.
func TestSkeletonSnapshotVersionSkew(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	binary.LittleEndian.PutUint32(data[4:], 0x7fffffff)
	data = snapshot.Reseal(data)
	_, err := LoadSkeleton(data, prog, "main", core.Options{})
	if !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// Truncations and bit flips must surface as errors, never panics or
// wrong skeletons. This is the deterministic companion of
// FuzzSnapshotDecode.
func TestSkeletonSnapshotCorruption(t *testing.T) {
	prog, live := buildSnapTestSkeleton(t)
	data := live.Snapshot()
	for n := 0; n < len(data); n += 7 {
		if _, err := LoadSkeleton(data[:n], prog, "main", core.Options{}); err == nil {
			t.Fatalf("truncation to %d bytes loaded", n)
		}
	}
	for off := 0; off < len(data); off += 11 {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[off] ^= 0x10
		if _, err := LoadSkeleton(mut, prog, "main", core.Options{}); err == nil {
			// A flip in a section the SHA covers must be caught; offsets
			// before the SHA (magic/version) are caught structurally. A
			// successful load can only happen if the flip was resealed —
			// which plain flips never are.
			t.Fatalf("bit flip at offset %d loaded", off)
		}
	}
}

// FuzzSnapshotDecode hardens the decoder: arbitrary mutations of a real
// snapshot — resealed so the integrity layer passes and the structural
// validation is actually exercised — must either fail to load or yield
// a skeleton that can run a full Check without panicking. Allocation is
// bounded by validation against the file size, so malformed lengths
// cannot OOM the process either.
func FuzzSnapshotDecode(f *testing.F) {
	prog, err := ir.FromMiniC(snapTestSrc)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := BuildSkeleton(prog, "main", core.Options{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	// helper's skeleton is scoped: main's nodes carry the sentinel.
	scoped, err := BuildSkeleton(prog, "helper", core.Options{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	seed := sk.Snapshot()
	f.Add(seed, uint32(0), byte(0))
	f.Add(seed, uint32(4), byte(0xff))
	f.Add(seed[:len(seed)/2], uint32(9), byte(1))
	f.Add(seed, uint32(48), byte(0x80))
	scopedSeed := scoped.Snapshot()
	f.Add(scopedSeed, uint32(0), byte(0))
	f.Add(scopedSeed, uint32(len(scopedSeed)-8), byte(0xff))

	prop := spec.MustCompile(`
start state Closed :
    | open -> Open;
state Open :
    | close -> Closed
    | use_closed -> Error;
accept state Error;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelFromAssign: true},
		{Callee: "close", ArgIndex: 0, Symbol: "close", LabelArg: 0},
	}}

	f.Fuzz(func(t *testing.T, data []byte, off uint32, flip byte) {
		if len(data) > 0 {
			mut := make([]byte, len(data))
			copy(mut, data)
			mut[int(off)%len(mut)] ^= flip
			data = snapshot.Reseal(mut)
		}
		for _, entry := range []string{"main", "helper"} {
			loaded, err := LoadSkeleton(data, prog, entry, core.Options{})
			if err != nil {
				continue
			}
			// A mutation that survives both integrity and structural
			// validation must still behave: checking a property may give
			// any verdict, but it must not crash.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Check panicked on decoded %s mutant: %v", entry, r)
					}
				}()
				res, err := loaded.Check(prop, events)
				if err != nil {
					_ = fmt.Sprintf("%v", err)
					return
				}
				res.OpenInstancesAtExitDetail("main")
				res.OpenInstancesAtExitDetail("helper")
			}()
		}
	})
}
