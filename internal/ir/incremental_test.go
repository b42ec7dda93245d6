package ir

import (
	"testing"

	"rasc/internal/minic"
)

const incrSrc = `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); }
void main() { mid(); }
`

// parseMC parses mini-C and fails the test on error.
func parseMC(t *testing.T, src string) *minic.Program {
	t.Helper()
	mc, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// sameIR asserts two Programs agree on everything fingerprint-related.
func sameIR(t *testing.T, step string, got, want *Program) {
	t.Helper()
	if len(got.Funcs) != len(want.Funcs) {
		t.Fatalf("%s: %d funcs vs %d", step, len(got.Funcs), len(want.Funcs))
	}
	for i, f := range got.Funcs {
		w := want.Funcs[i]
		if f.Name != w.Name || f.Fingerprint != w.Fingerprint || f.Summary != w.Summary || f.SCC != w.SCC || f.Component != w.Component {
			t.Errorf("%s: func %s: fp/summary/scc/component diverge from full lowering", step, f.Name)
		}
	}
}

// TestNewIncrementalEquivalence re-lowers an edited program with shared
// FuncDef pointers (the shape the memoized front end produces) and
// checks NewIncremental against a from-scratch New.
func TestNewIncrementalEquivalence(t *testing.T) {
	mc1 := parseMC(t, incrSrc)
	prev, err := New(mc1, Meta{})
	if err != nil {
		t.Fatal(err)
	}

	// Edit: replace helper's body; every other def is the same pointer.
	edited := parseMC(t, `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); leaf(); }
void main() { mid(); }
`)
	mc2 := &minic.Program{ByName: map[string]*minic.FuncDef{}}
	for _, fd := range mc1.Funcs {
		def := fd
		if fd.Name == "helper" {
			def = edited.ByName["helper"]
		}
		mc2.Funcs = append(mc2.Funcs, def)
		mc2.ByName[def.Name] = def
	}

	got, err := NewIncremental(mc2, Meta{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(parseMC(t, `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); leaf(); }
void main() { mid(); }
`), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "single edit", got, want)

	// The edit must invalidate exactly helper and its callers.
	for _, name := range []string{"leaf"} {
		if got.ByName[name].Summary != prev.ByName[name].Summary {
			t.Errorf("%s: summary changed by unrelated edit", name)
		}
	}
	for _, name := range []string{"helper", "mid", "main"} {
		if got.ByName[name].Summary == prev.ByName[name].Summary {
			t.Errorf("%s: summary should change after helper edit", name)
		}
	}

	// Resolution change: add a definition for the previously external
	// callee `work`. Pointer-identical bodies must NOT reuse their old
	// fingerprints, because leaf's call now resolves.
	withWork := parseMC(t, `
void leaf() { work(); }
void mid() { leaf(); helper(); }
void helper() { leaf(); }
void main() { mid(); }
void work() { }
`)
	mc3 := &minic.Program{ByName: map[string]*minic.FuncDef{}}
	for _, fd := range mc1.Funcs {
		mc3.Funcs = append(mc3.Funcs, fd)
		mc3.ByName[fd.Name] = fd
	}
	wdef := withWork.ByName["work"]
	mc3.Funcs = append(mc3.Funcs, wdef)
	mc3.ByName["work"] = wdef

	got3, err := NewIncremental(mc3, Meta{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := New(withWork, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "resolution change", got3, want3)
	if got3.ByName["leaf"].Fingerprint == prev.ByName["leaf"].Fingerprint {
		t.Error("leaf fingerprint must change when its callee gains a definition")
	}

	// nil prev falls back to a full lowering.
	got4, err := NewIncremental(mc1, Meta{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "nil prev", got4, prev)
}
