package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/obs"
)

func loadRaceCorpus(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadPaths([]string{"testdata/race"})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func analyzeRace(t *testing.T, pkg *Package, parallel int) *Report {
	t.Helper()
	race, _ := Get("race")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{race}, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRaceCheckerSeededRace: the seeded two-goroutine race on counter is
// reported with a witness trace per goroutine; the mutex-guarded total
// is not reported.
func TestRaceCheckerSeededRace(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly the counter race", rep.Diagnostics)
	}
	d := rep.Diagnostics[0]
	if d.Checker != "race" || d.Label != "counter" || d.Severity != SeverityError {
		t.Fatalf("diagnostic = %+v", d)
	}
	if len(d.Trace) == 0 || len(d.SecondTrace) == 0 {
		t.Fatalf("race finding needs two witness traces, got %d and %d hops", len(d.Trace), len(d.SecondTrace))
	}
	// The first trace stays in main; the second must enter the spawned
	// goroutine's body.
	entered := false
	for _, tp := range d.SecondTrace {
		if tp.Enter && tp.Fn == "update" {
			entered = true
		}
	}
	if !entered {
		t.Errorf("second trace must enter the spawned goroutine: %+v", d.SecondTrace)
	}
	for _, d := range rep.Diagnostics {
		if d.Label == "total" {
			t.Error("mutex-guarded variable must not be reported")
		}
	}
}

// TestRaceCheckerGuarded: once every counter access is guarded by the
// same mutex, the checker reports nothing.
func TestRaceCheckerGuarded(t *testing.T) {
	src := `package p

import "sync"

var mu sync.Mutex
var counter int

func main() {
	go update()
	mu.Lock()
	counter = 1
	mu.Unlock()
}

func update() {
	mu.Lock()
	counter++
	mu.Unlock()
}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "g.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("guarded program must be race-free, got %+v", rep.Diagnostics)
	}
}

// TestRaceCheckerRWLock: two RLock-protected reads do not exclude each
// other, but they do not race either (no write); a write under Lock
// against a read under RLock of the same lock is protected.
func TestRaceCheckerRWLock(t *testing.T) {
	src := `package p

import "sync"

var mu sync.RWMutex
var state int

func main() {
	go reader()
	mu.Lock()
	state = 1
	mu.Unlock()
}

func reader() {
	mu.RLock()
	use(state)
	mu.RUnlock()
}

func use(v int) {}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "rw.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("write under Lock vs read under RLock is protected, got %+v", rep.Diagnostics)
	}
	// Drop the writer's Lock: now the RLock does not protect the read.
	racy := strings.Replace(src, "\tmu.Lock()\n\tstate = 1\n\tmu.Unlock()", "\tstate = 1", 1)
	pkg2, err := LoadFiles([]gosrc.File{{Name: "rw.go", Src: racy}})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := analyzeRace(t, pkg2, 0)
	if len(rep2.Diagnostics) != 1 {
		t.Fatalf("unguarded write vs RLock read must race, got %+v", rep2.Diagnostics)
	}
}

// TestRaceCheckerSpawnInLoop: a goroutine spawned in a loop is
// multi-instance — two copies of its own write race with each other.
func TestRaceCheckerSpawnInLoop(t *testing.T) {
	src := `package p

var hits int

func main() {
	for i := 0; i < 10; i++ {
		go bump()
	}
}

func bump() {
	hits++
}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "loop.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeRace(t, pkg, 0)
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "hits" {
		t.Fatalf("loop-spawned goroutine must race with itself, got %+v", rep.Diagnostics)
	}
}

// TestLockOrderChecker: AB in one goroutine and BA in another is an
// inversion; consistent order is not.
func TestLockOrderChecker(t *testing.T) {
	src := `package p

import "sync"

var a sync.Mutex
var b sync.Mutex

func main() {
	go backwards()
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func backwards() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "ord.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := Get("lockorder")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{lo}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want one inversion", rep.Diagnostics)
	}
	d := rep.Diagnostics[0]
	if d.Label != "a and b" || len(d.Trace) == 0 || len(d.SecondTrace) == 0 {
		t.Fatalf("inversion diagnostic = %+v", d)
	}

	consistent := strings.Replace(src, "\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()",
		"\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()", 1)
	pkg2, err := LoadFiles([]gosrc.File{{Name: "ord.go", Src: consistent}})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Analyze(pkg2, Config{Checkers: []*Checker{lo}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Diagnostics) != 0 {
		t.Fatalf("consistent order must not be flagged, got %+v", rep2.Diagnostics)
	}
}

// TestChanCloseChecker: double close and send-after-close are flagged,
// per channel object.
func TestChanCloseChecker(t *testing.T) {
	src := `package p

func main() {
	ch := make(chan int)
	ok := make(chan int)
	ch <- 1
	close(ch)
	close(ch)
	ok <- 1
	close(ok)
}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "ch.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := Get("chanclose")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{cc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "ch" {
		t.Fatalf("diagnostics = %+v, want one double close of ch", rep.Diagnostics)
	}
}

// TestRWLockChecker: RUnlock with no read lock held is flagged; a
// matched pair is not.
func TestRWLockChecker(t *testing.T) {
	src := `package p

import "sync"

var mu sync.RWMutex
var other sync.RWMutex

func main() {
	other.RLock()
	other.RUnlock()
	mu.RUnlock()
}
`
	pkg, err := LoadFiles([]gosrc.File{{Name: "rwl.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rw, _ := Get("rwlock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{rw}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Label != "mu" {
		t.Fatalf("diagnostics = %+v, want one unmatched RUnlock of mu", rep.Diagnostics)
	}
}

// TestRaceDeterministicParallel8: the race checker's report is
// byte-identical across repeated runs with -parallel 8.
func TestRaceDeterministicParallel8(t *testing.T) {
	pkg := loadRaceCorpus(t)
	var outs [][]byte
	for i := 0; i < 2; i++ {
		rep := analyzeRace(t, pkg, 8)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("race report differs across runs at parallel=8:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestRaceGoldenJSON and TestRaceGoldenSARIF lock the seeded race's
// rendering — including both witness traces — into golden files.
func TestRaceGoldenJSON(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, buf.Bytes(), "testdata/race_report.json.golden")
}

func TestRaceGoldenSARIF(t *testing.T) {
	rep := analyzeRace(t, loadRaceCorpus(t), 0)
	var buf bytes.Buffer
	if err := rep.SARIF(&buf); err != nil {
		t.Fatal(err)
	}
	// The race result must carry one codeFlow with two threadFlows.
	var log struct {
		Runs []struct {
			Results []struct {
				CodeFlows []struct {
					ThreadFlows []struct {
						Locations []struct{} `json:"locations"`
					} `json:"threadFlows"`
				} `json:"codeFlows"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("SARIF shape: %s", buf.Bytes())
	}
	cf := log.Runs[0].Results[0].CodeFlows
	if len(cf) != 1 || len(cf[0].ThreadFlows) != 2 {
		t.Fatalf("race result must have one codeFlow with two threadFlows, got %+v", cf)
	}
	goldenCompare(t, buf.Bytes(), "testdata/race_report.sarif.golden")
}

// TestFileIgnoreDirective: //rasc:ignore-file suppresses every finding
// in the file (optionally per checker).
func TestFileIgnoreDirective(t *testing.T) {
	base := `package p

import "sync"

var mu sync.Mutex

func main() {
	mu.Unlock()
}
`
	for _, tc := range []struct {
		name      string
		directive string
		want      int // surviving diagnostics
	}{
		{"bare", "//rasc:ignore-file\n", 0},
		{"named", "//rasc:ignore-file=doublelock\n", 0},
		{"other-checker", "//rasc:ignore-file=fileleak\n", 1},
		{"not-a-directive", "//rasc:ignore-filex\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := LoadFiles([]gosrc.File{{Name: "f.go", Src: tc.directive + base}})
			if err != nil {
				t.Fatal(err)
			}
			dl, _ := Get("doublelock")
			rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diagnostics) != tc.want {
				t.Errorf("diagnostics = %+v, want %d", rep.Diagnostics, tc.want)
			}
			if tc.want == 0 && rep.Suppressed != 1 {
				t.Errorf("suppressed = %d, want 1", rep.Suppressed)
			}
		})
	}
}

// TestSeverityThreshold covers HasFindingsAtLeast, the -fail-on logic.
func TestSeverityThreshold(t *testing.T) {
	r := &Report{Diagnostics: []Diagnostic{{Severity: SeverityWarning}}}
	if r.HasFindingsAtLeast(SeverityError) {
		t.Error("a warning is not at least an error")
	}
	if !r.HasFindingsAtLeast(SeverityWarning) || !r.HasFindingsAtLeast(SeverityNote) {
		t.Error("a warning satisfies the warning and note thresholds")
	}
}

// TestGithubRenderer checks the workflow-command format and escaping.
func TestGithubRenderer(t *testing.T) {
	r := &Report{Diagnostics: []Diagnostic{
		{Checker: "race", Severity: SeverityError, File: "a.go", Line: 7, Message: "bad 100%"},
		{Checker: "lockorder", Severity: SeverityWarning, File: "b.go", Line: 3, Message: "risky"},
	}}
	var buf bytes.Buffer
	if err := r.Github(&buf); err != nil {
		t.Fatal(err)
	}
	want := "::error file=a.go,line=7::race: bad 100%25\n::warning file=b.go,line=3::lockorder: risky\n"
	if buf.String() != want {
		t.Errorf("github output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// sharedModelSrc exercises the concurrency model's sharing: startA and
// startB spawn the same function, pump is both an entry and a spawnee
// (of startC) and spawns tick in a loop, so tick races with itself, and
// lockAB/lockBA take a and b in opposite orders.
const sharedModelSrc = `package p

import "sync"

var mu sync.Mutex
var a sync.Mutex
var b sync.Mutex
var counter int
var guarded int
var hits int

func startA() {
	go shared()
	go lockBA()
	counter = 1
	lockAB()
}

func startB() {
	go shared()
	counter = 2
}

func startC() {
	go pump()
	go shared()
}

func pump() {
	for i := 0; i < 3; i++ {
		go tick()
	}
}

func tick() {
	hits++
}

func shared() {
	counter++
	mu.Lock()
	guarded++
	mu.Unlock()
}

func lockAB() {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func lockBA() {
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}
`

var sharedModelEntries = []string{"startA", "startB", "startC", "pump"}

func loadSharedModel(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadFiles([]gosrc.File{{Name: "shared.go", Src: sharedModelSrc}})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func modelCheckers(t *testing.T) []*Checker {
	t.Helper()
	race, _ := Get("race")
	lo, _ := Get("lockorder")
	return []*Checker{race, lo}
}

// TestConcModelSharedAcrossEntries: per-root facts and per-entry
// goroutine lists are shared by every job of a package, so an entry's
// findings — traces included — must not depend on which other entries
// ran before or beside it. Each entry is first analyzed alone; runs over
// all entries at -parallel 1 and 8 and in reverse order must then equal
// those per-entry results merged in the run's entry order (the driver
// keeps the first of two equal findings from different entries).
func TestConcModelSharedAcrossEntries(t *testing.T) {
	checkers := modelCheckers(t)
	alone := map[string][]Diagnostic{}
	for _, e := range sharedModelEntries {
		rep, err := Analyze(loadSharedModel(t), Config{Checkers: checkers, Entries: []string{e}, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		alone[e] = rep.Diagnostics
	}
	merged := func(order []string) []Diagnostic {
		seen := map[string]bool{}
		var out []Diagnostic
		for _, e := range order {
			for _, d := range alone[e] {
				if !seen[d.key()] {
					seen[d.key()] = true
					out = append(out, d)
				}
			}
		}
		sortDiagnostics(out)
		return out
	}
	reversed := make([]string, len(sharedModelEntries))
	for i, e := range sharedModelEntries {
		reversed[len(reversed)-1-i] = e
	}
	shared := loadSharedModel(t)
	for _, tc := range []struct {
		name     string
		pkg      *Package
		entries  []string
		parallel int
	}{
		{"parallel-1", loadSharedModel(t), sharedModelEntries, 1},
		{"parallel-8", loadSharedModel(t), sharedModelEntries, 8},
		{"reversed", loadSharedModel(t), reversed, 8},
		// One package across runs: the second and third run read facts
		// the first computed.
		{"shared-parallel-8", shared, sharedModelEntries, 8},
		{"shared-reversed", shared, reversed, 1},
		{"shared-parallel-8-again", shared, sharedModelEntries, 8},
	} {
		rep, err := Analyze(tc.pkg, Config{Checkers: checkers, Entries: tc.entries, Parallel: tc.parallel})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep.Diagnostics)
		want, _ := json.Marshal(merged(tc.entries))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: diagnostics differ from the per-entry runs:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}

	// The corpus must exercise what it is for: the shared spawnee's race
	// from both spawners, tick racing with itself, the inversion, and
	// one finding reported by two entries with different traces.
	labels := map[string]int{}
	for _, e := range sharedModelEntries {
		for _, d := range alone[e] {
			labels[d.Checker+":"+d.Label]++
		}
	}
	for _, want := range []string{"race:counter", "race:hits", "lockorder:a and b"} {
		if labels[want] == 0 {
			t.Errorf("no %s finding; per-entry findings: %v", want, labels)
		}
	}
	if labels["race:hits"] < 2 {
		t.Errorf("tick's self-race must be found from pump and from startC, got %d", labels["race:hits"])
	}
}

// TestConcModelMetrics: analysis.model_roots counts each distinct
// goroutine root once, however many entries and jobs share it, and both
// model counters are the same at -parallel 1 and 8.
func TestConcModelMetrics(t *testing.T) {
	checkers := modelCheckers(t)
	counts := func(parallel int) (roots, states int64) {
		reg := obs.NewRegistry()
		if _, err := Analyze(loadSharedModel(t), Config{Checkers: checkers, Entries: sharedModelEntries, Parallel: parallel, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		return snap.Counters["analysis.model_roots"], snap.Counters["analysis.model_states"]
	}
	roots1, states1 := counts(1)
	roots8, states8 := counts(8)
	if roots1 != roots8 || states1 != states8 {
		t.Errorf("model counters differ: parallel 1 roots=%d states=%d, parallel 8 roots=%d states=%d",
			roots1, states1, roots8, states8)
	}
	pkg := loadSharedModel(t)
	distinct := map[string]bool{}
	for _, e := range sharedModelEntries {
		for _, g := range pkg.concModel().goroutines(pkg, e, nil) {
			distinct[g.Root] = true
		}
	}
	// startA, startB, startC, pump, shared, lockBA, tick.
	if roots1 != int64(len(distinct)) || len(distinct) != 7 {
		t.Errorf("model_roots = %d, want one per distinct goroutine root (%d: %v)", roots1, len(distinct), distinct)
	}
	if states1 == 0 {
		t.Error("model_states must count the dataflow's states")
	}
}
