package pdm

import (
	"reflect"
	"testing"

	"rasc/internal/core"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/spec"
)

// skipSrc has one function with file events (main) and two without:
// quiet only calls non-event functions, and helper calls quiet.
const skipSrc = `
void main() {
    int f = open("a");
    helper();
    close(f);
}
void helper() {
    quiet();
    log(1);
}
void quiet() {
    log(2);
}`

// skipSkeleton builds a skeleton that defers every call statement, so
// the event map alone decides what a fork would layer.
func skipSkeleton(t *testing.T, src, entry string) *Skeleton {
	t.Helper()
	prog, err := ir.FromMiniC(src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(prog, entry, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// An entry on which no event matches is answered without a fork: no
// violations, no open instances and no exit provenance, whether or not
// provenance is requested.
func TestSkipForkWithoutEvents(t *testing.T) {
	prop, events := fileTestProp(t)
	sk := skipSkeleton(t, skipSrc, "helper")
	for _, explain := range []bool{false, true} {
		pm := obs.NewPDMMetrics(obs.NewRegistry())
		res, err := sk.CheckObs(prop, events, &Obs{PDM: pm, Explain: explain})
		if err != nil {
			t.Fatal(err)
		}
		if got := pm.SkippedForks.Value(); got != 1 {
			t.Errorf("explain=%v: SkippedForks = %d, want 1", explain, got)
		}
		if got := pm.SkeletonForks.Value(); got != 0 {
			t.Errorf("explain=%v: SkeletonForks = %d, want 0", explain, got)
		}
		if res.Sys != nil || res.PN != nil {
			t.Errorf("explain=%v: skipped check has a fork", explain)
		}
		if v := res.Violations(); len(v) != 0 {
			t.Errorf("explain=%v: violations %v, want none", explain, v)
		}
		if l, m := res.OpenInstancesAtExitDetail("helper"); l != nil || m != nil {
			t.Errorf("explain=%v: open at exit %v %v, want nil nil", explain, l, m)
		}
		if p := res.ExitProvenance("helper", ""); p != nil {
			t.Errorf("explain=%v: exit provenance %v, want nil", explain, p)
		}
	}

	// main layers its events: a real fork.
	pm := obs.NewPDMMetrics(obs.NewRegistry())
	if _, err := skipSkeleton(t, skipSrc, "main").CheckObs(prop, events, &Obs{PDM: pm}); err != nil {
		t.Fatal(err)
	}
	if pm.SkeletonForks.Value() != 1 || pm.SkippedForks.Value() != 0 {
		t.Errorf("main: forks=%d skipped=%d, want 1/0", pm.SkeletonForks.Value(), pm.SkippedForks.Value())
	}
}

// prunedOnlySpec reaches its accept state only through bad; a label that
// is only ever opened can never be reported.
const prunedOnlySpec = `
start state S :
    | open(x) -> O;
state O :
    | bad(x) -> E;
accept state E;
`

// An entry whose every matched event is a pruned label layers nothing,
// so it is skipped too; the pruned matches are still counted.
func TestSkipForkAllPruned(t *testing.T) {
	prop := spec.MustCompile(prunedOnlySpec)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "open", ArgIndex: -1, Symbol: "open", LabelArg: 0},
		{Callee: "bad", ArgIndex: -1, Symbol: "bad", LabelArg: 0},
	}}
	sk := skipSkeleton(t, `
void main() {
    open(a);
    work();
    open(b);
}`, "main")
	pm := obs.NewPDMMetrics(obs.NewRegistry())
	res, err := sk.CheckObs(prop, events, &Obs{PDM: pm})
	if err != nil {
		t.Fatal(err)
	}
	if pm.SkippedForks.Value() != 1 || pm.SkeletonForks.Value() != 0 {
		t.Errorf("forks=%d skipped=%d, want 0/1", pm.SkeletonForks.Value(), pm.SkippedForks.Value())
	}
	if got := pm.PrunedEvents.Value(); got != 2 {
		t.Errorf("PrunedEvents = %d, want 2", got)
	}
	if got := pm.LayeredEvents.Value(); got != 0 {
		t.Errorf("LayeredEvents = %d, want 0", got)
	}
	if v := res.Violations(); len(v) != 0 {
		t.Errorf("violations %v, want none", v)
	}
}

// A property whose start state accepts reports on the empty word, so an
// entry with no events must still fork: the label-free instance is open
// at exit.
func TestNoSkipWhenStartAccepts(t *testing.T) {
	prop := spec.MustCompile(`
start accept state Idle :
    | arm -> Armed;
state Armed :
    | disarm -> Idle;
`)
	events := &minic.EventMap{Rules: []minic.Rule{
		{Callee: "arm", ArgIndex: -1, Symbol: "arm", LabelArg: -1},
		{Callee: "disarm", ArgIndex: -1, Symbol: "disarm", LabelArg: -1},
	}}
	sk := skipSkeleton(t, skipSrc, "helper")
	pm := obs.NewPDMMetrics(obs.NewRegistry())
	res, err := sk.CheckObs(prop, events, &Obs{PDM: pm, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if pm.SkeletonForks.Value() != 1 || pm.SkippedForks.Value() != 0 {
		t.Errorf("forks=%d skipped=%d, want 1/0", pm.SkeletonForks.Value(), pm.SkippedForks.Value())
	}
	if got := res.OpenInstancesAtExit("helper"); !reflect.DeepEqual(got, []string{""}) {
		t.Errorf("open at exit = %q, want the label-free instance", got)
	}
	if p := res.ExitProvenance("helper", ""); len(p) == 0 || p[len(p)-1].Rule != "exit" {
		t.Errorf("exit provenance = %v, want a chain ending at the exit", p)
	}
}

// The exit queries of a leak-mode run do not collect violations, and
// still return provenance under Explain.
func TestLeakQueriesLeaveViolationsUncollected(t *testing.T) {
	prop := spec.MustCompile(fileSpec)
	sk := skipSkeleton(t, `
void main() {
    int fd1 = open("file1", O_RDONLY);
    int fd2 = open("file2", O_RDONLY);
    close(fd1);
}`, "main")
	res, err := sk.CheckObs(prop, minic.FileEvents(), &Obs{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	open, _ := res.OpenInstancesAtExitDetail("main")
	if !reflect.DeepEqual(open, []string{"fd2"}) {
		t.Fatalf("open at exit = %v, want [fd2]", open)
	}
	if p := res.ExitProvenance("main", "fd2"); len(p) == 0 || p[len(p)-1].Rule != "exit" {
		t.Errorf("exit provenance = %v, want a chain ending at the exit", p)
	}
	if res.collected {
		t.Error("exit queries collected violations")
	}
	first := res.Violations()
	if !res.collected || !reflect.DeepEqual(res.Violations(), first) {
		t.Error("Violations is not memoized")
	}
}
