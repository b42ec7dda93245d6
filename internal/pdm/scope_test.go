package pdm

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/spec"
	"rasc/internal/synth"
)

// scopeCase is a test program with a property to check from each of its
// functions.
type scopeCase struct {
	name   string
	src    string
	prop   *spec.Property
	events *minic.EventMap
}

// fileTestSrc opens, uses and closes files in main and in a callee, so
// the file property has events on both sides of a call.
const fileTestSrc = `
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

func fileTestProp(t *testing.T) (*spec.Property, *minic.EventMap) {
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

func scopeCases(t *testing.T) []scopeCase {
	t.Helper()
	read := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	fileProp, fileEvents := fileTestProp(t)
	cases := []scopeCase{
		{"section63", read("testdata/section63.c"), SimplePrivilegeProperty(), minic.PrivilegeEvents()},
		{"filestate", read("testdata/filestate.c"), spec.MustCompile(fileSpec), minic.FileEvents()},
		{"files", fileTestSrc, fileProp, fileEvents},
	}
	for seed := int64(1); seed <= 3; seed++ {
		src := synth.Generate(synth.Config{
			Seed: seed, Functions: 6, StmtsPerFn: 8, CallProb: 0.3,
			BranchProb: 0.2, LoopProb: 0.1, SafePatterns: 2, UnsafePatterns: 2,
		})
		cases = append(cases, scopeCase{fmt.Sprintf("synth%d", seed), src, SimplePrivilegeProperty(), minic.PrivilegeEvents()})
	}
	return cases
}

// decoys renders two functions that nothing calls: the first calls every
// function in fns (so each callee of an entry gains a caller outside the
// entry's closure) and both perform events of every property the cases
// check.
func decoys(prefix string, fns []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "void %s_calls(int a) {\n    int fd = open(\"decoy\");\n    seteuid(0);\n", prefix)
	for _, fn := range fns {
		fmt.Fprintf(&b, "    %s(a);\n", fn)
	}
	b.WriteString("    execl(\"/bin/sh\", \"sh\");\n    use(fd);\n}\n")
	fmt.Fprintf(&b, "void %s_events() {\n    %s_calls(1);\n    while (c) { int g = open(\"loop\"); seteuid(1); }\n    execl(\"/bin/sh\", \"sh\");\n    close(fd);\n}\n", prefix, prefix)
	return b.String()
}

// scopedCheck checks entry of src the way pdm.Check does, with
// provenance on.
func scopedCheck(t *testing.T, src, entry string, c scopeCase) *Result {
	t.Helper()
	p, err := ir.FromMiniC(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(p, entry, core.Options{}, func(call *minic.CallExpr, assignTo string) bool {
		_, ok := c.events.Match(call, assignTo)
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sk.CheckObs(c.prop, c.events, &Obs{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withoutNodeIDs drops the one field that names CFG positions rather
// than program points: decoys placed before the program shift every ID.
func withoutNodeIDs(vs []Violation) []Violation {
	out := append([]Violation(nil), vs...)
	for i := range out {
		out[i].NodeID = 0
	}
	return out
}

// Metamorphic: a skeleton covers only its entry's call-graph closure, so
// adding code unreachable from the entry — before and after the
// program, calling the entry's callees and performing events — leaves
// every finding, trace and provenance chain unchanged.
func TestScopedSkeletonIgnoresUnreachableCode(t *testing.T) {
	violations, open := 0, 0
	for _, c := range scopeCases(t) {
		mc, err := minic.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var fns []string
		for _, fd := range mc.Funcs {
			fns = append(fns, fd.Name)
		}
		// The leading decoys sit on one line, so the program keeps its
		// line numbers while every CFG node ID shifts.
		pre := strings.ReplaceAll(decoys("zzpre", fns), "\n", " ")
		grown := pre + c.src + "\n" + decoys("zzpost", fns)
		for _, entry := range fns {
			want := scopedCheck(t, c.src, entry, c)
			got := scopedCheck(t, grown, entry, c)
			if !reflect.DeepEqual(withoutNodeIDs(got.Violations()), withoutNodeIDs(want.Violations())) {
				t.Errorf("%s/%s: violations diverge with unreachable code:\n got %+v\nwant %+v",
					c.name, entry, got.Violations(), want.Violations())
			}
			gl, gm := got.OpenInstancesAtExitDetail(entry)
			wl, wm := want.OpenInstancesAtExitDetail(entry)
			if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(gm, wm) {
				t.Errorf("%s/%s: open at exit %v %v, want %v %v", c.name, entry, gl, gm, wl, wm)
			}
			violations += len(want.Violations())
			open += len(wl)
			for _, lbl := range wl {
				if g, w := got.ExitProvenance(entry, lbl), want.ExitProvenance(entry, lbl); !reflect.DeepEqual(g, w) {
					t.Errorf("%s/%s: exit provenance for %q diverges:\n got %+v\nwant %+v", c.name, entry, lbl, g, w)
				}
			}
		}
	}
	if violations == 0 || open == 0 {
		t.Fatalf("vacuous: %d violations, %d open instances across all cases", violations, open)
	}
}

const leafSrc = `
void main() {
    int f = open("a");
    helper(f);
    other();
    close(f);
}
void helper(int f) {
    use(f);
    int g = open("b");
    close(g);
}
void other() {
    helper(2);
}`

// A leaf entry's skeleton holds exactly its own function: one variable
// per node of the leaf, every other node mapped to NoVar, and no
// deferred statement elsewhere.
func TestLeafSkeletonStaysInClosure(t *testing.T) {
	p, err := ir.FromMiniC(leafSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(p, "helper", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.ByName["helper"].Nodes[0], p.ByName["helper"].Nodes[1]
	if got := sk.sys.NumVars(); got != hi-lo {
		t.Fatalf("skeleton has %d variables, helper has %d nodes", got, hi-lo)
	}
	for id, v := range sk.nodeVar {
		if in := id >= lo && id < hi; in != (v != NoVar) {
			t.Errorf("node %d (%s) maps to %d", id, p.Graph.Nodes[id].Fn, v)
		}
	}
	if sk.Deferred() == 0 {
		t.Fatal("helper's calls were not deferred")
	}
	for _, d := range sk.deferred {
		if fn := p.Graph.Nodes[d.id].Fn; fn != "helper" {
			t.Errorf("deferred node %d belongs to %s", d.id, fn)
		}
	}
	for v := 0; v < sk.sys.NumVars(); v++ {
		name := sk.sys.VarName(core.VarID(v))
		if want := fmt.Sprintf("S%d@helper:", lo+v); !strings.HasPrefix(name, want) {
			t.Errorf("variable %d renders as %q, want prefix %q", v, name, want)
		}
	}
}

// Exit queries for an entry outside the run's closure, or undefined,
// have no fact to report: nil, without indexing the sentinel.
func TestExitQueriesOutsideClosure(t *testing.T) {
	p, err := ir.FromMiniC(leafSrc)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(p, "helper", core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prop, events := fileTestProp(t)
	res, err := sk.CheckObs(prop, events, &Obs{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{"main", "other", "", "nosuch"} {
		if labels, may := res.OpenInstancesAtExitDetail(entry); labels != nil || may != nil {
			t.Errorf("OpenInstancesAtExitDetail(%q) = %v, %v, want nil", entry, labels, may)
		}
		if prov := res.ExitProvenance(entry, ""); prov != nil {
			t.Errorf("ExitProvenance(%q) = %v, want nil", entry, prov)
		}
	}
}
