package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rasc/internal/gosrc"
	"rasc/internal/obs"
)

// cacheSrc: Top -> mid -> leaf (double lock) and Other -> ok (clean),
// two disjoint call trees so an edit in one must not re-solve the other.
const cacheSrc = `package p

import "sync"

var mu sync.Mutex

func Top() { mid() }

func mid() { leaf() }

func leaf() {
	mu.Lock()
	mu.Lock() // BUG
}

func Other() { ok() }

func ok() {
	mu.Lock()
	mu.Unlock()
}
`

func analyzeCached(t *testing.T, dir, src string) *Report {
	t.Helper()
	return analyzeCachedObs(t, dir, src, nil)
}

// analyzeCachedObs is analyzeCached feeding the run's metrics into reg
// (nil OK).
func analyzeCachedObs(t *testing.T, dir, src string, reg *obs.Registry) *Report {
	t.Helper()
	pkg, err := LoadFiles([]gosrc.File{{Name: "c.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := Get("doublelock")
	rep, err := Analyze(pkg, Config{Checkers: []*Checker{dl}, Cache: cache, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil {
		t.Fatal("cached run reported no CacheStats")
	}
	return rep
}

func findingsJSON(t *testing.T, rep *Report) string {
	t.Helper()
	shadow := *rep
	shadow.Cache = nil
	b, err := json.Marshal(&shadow)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// renderAll renders a report in every machine- and human-facing format
// (text, JSON, SARIF), with the cache telemetry dropped the way gocheck
// drops it before rendering. Byte equality of this string is the
// differential tests' notion of "identical output".
func renderAll(t *testing.T, rep *Report) string {
	t.Helper()
	shadow := *rep
	shadow.Cache = nil
	var buf bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return shadow.Text(b) },
		func(b *bytes.Buffer) error { return shadow.JSON(b) },
		func(b *bytes.Buffer) error { return shadow.SARIF(b) },
	} {
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n----\n")
	}
	return buf.String()
}

// counter reads one counter of a metrics registry.
func counter(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// A warm fully-cached run must hit on every lookup, build no skeleton,
// and reproduce a byte-identical report.
func TestCacheWarmRunIsFreeAndIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	if cold.Cache.Hits != 0 || cold.Cache.Misses != cold.Jobs {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", cold.Cache.Hits, cold.Cache.Misses, cold.Jobs)
	}
	reg := obs.NewRegistry()
	warm := analyzeCachedObs(t, dir, cacheSrc, reg)
	if warm.Cache.Misses != 0 || warm.Cache.Hits != cold.Cache.Misses {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0",
			warm.Cache.Hits, warm.Cache.Misses, cold.Cache.Misses)
	}
	if n := counter(reg, "pdm.skeleton_builds"); n != 0 {
		t.Fatalf("warm run built %d skeletons, want 0", n)
	}
	if n := counter(reg, "driver.jobs_solved"); n != 0 {
		t.Fatalf("warm run solved %d jobs, want 0", n)
	}
	if warm.Cache.HitRate() != 100 {
		t.Fatalf("warm hit rate = %v", warm.Cache.HitRate())
	}
	if findingsJSON(t, cold) != findingsJSON(t, warm) {
		t.Fatalf("warm report differs from cold:\ncold: %s\nwarm: %s",
			findingsJSON(t, cold), findingsJSON(t, warm))
	}
	if len(cold.Diagnostics) != 1 || cold.Diagnostics[0].Checker != "doublelock" {
		t.Fatalf("corpus should yield exactly the doublelock finding, got %+v", cold.Diagnostics)
	}
}

// Editing one function re-solves exactly the jobs whose entry reaches
// it; the disjoint Other/ok tree stays cached.
func TestCacheEditResolvesOnlyDependents(t *testing.T) {
	dir := t.TempDir()
	analyzeCached(t, dir, cacheSrc)
	// Same-line edit (the fingerprint includes line numbers, so inserting
	// lines would legitimately invalidate everything below the edit).
	edited := strings.Replace(cacheSrc, "mu.Lock() // BUG", "mu.Unlock()", 1)
	reg := obs.NewRegistry()
	rep := analyzeCachedObs(t, dir, edited, reg)
	if rep.Cache.Misses != 1 || rep.Cache.Hits != 1 {
		t.Fatalf("edit run: hits=%d misses=%d, want 1 (Other) / 1 (Top)", rep.Cache.Hits, rep.Cache.Misses)
	}
	if n := counter(reg, "driver.jobs_solved"); n != 1 {
		t.Fatalf("edit run solved %d jobs, want 1 (Top)", n)
	}
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("fixed program still reports %+v", rep.Diagnostics)
	}
	// And the fix itself is cacheable: a warm re-run of the edited source
	// is free again.
	rerun := analyzeCached(t, dir, edited)
	if rerun.Cache.Misses != 0 {
		t.Fatalf("re-run after edit: misses=%d", rerun.Cache.Misses)
	}
}

// Suppression comments are not part of function fingerprints: adding or
// removing //rasc:ignore must take effect on a fully warm cache — the
// cache stores pre-suppression results and the merge phase re-applies
// the current directives, so a stale cache can neither hide a finding
// nor resurrect a suppressed one.
func TestCacheSuppressionStaleness(t *testing.T) {
	dir := t.TempDir()
	base := analyzeCached(t, dir, cacheSrc)
	if len(base.Diagnostics) != 1 || base.Suppressed != 0 {
		t.Fatalf("baseline: %d findings, %d suppressed", len(base.Diagnostics), base.Suppressed)
	}
	ignored := strings.Replace(cacheSrc, "mu.Lock() // BUG", "mu.Lock() //rasc:ignore", 1)
	rep := analyzeCached(t, dir, ignored)
	if rep.Cache.Misses != 0 {
		t.Fatalf("an ignore-comment edit should stay fully cached, got %d misses", rep.Cache.Misses)
	}
	if len(rep.Diagnostics) != 0 || rep.Suppressed != 1 {
		t.Fatalf("with ignore: %d findings, %d suppressed", len(rep.Diagnostics), rep.Suppressed)
	}
	// Removing the directive resurfaces the finding from the same cache.
	back := analyzeCached(t, dir, cacheSrc)
	if back.Cache.Misses != 0 {
		t.Fatalf("removing the ignore should stay fully cached, got %d misses", back.Cache.Misses)
	}
	if len(back.Diagnostics) != 1 || back.Suppressed != 0 {
		t.Fatalf("without ignore: %d findings, %d suppressed", len(back.Diagnostics), back.Suppressed)
	}
}

// Corrupt records — truncation, garbage — demote to misses with a note;
// the run never panics and reports the same findings as a cold run.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	for i, e := range ents {
		path := filepath.Join(dir, e.Name())
		switch i % 2 {
		case 0: // truncate mid-file
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)/2], 0o644)
		case 1: // replace with garbage
			os.WriteFile(path, []byte("\x00not json\xff"), 0o644)
		}
		mangled++
	}
	if mangled == 0 {
		t.Fatal("no cache records written")
	}
	rep := analyzeCached(t, dir, cacheSrc)
	if rep.Cache.Hits != 0 {
		t.Fatalf("mangled cache still hit %d times", rep.Cache.Hits)
	}
	if len(rep.Cache.Notes) == 0 {
		t.Fatal("corruption must be noted")
	}
	if findingsJSON(t, rep) != findingsJSON(t, cold) {
		t.Fatal("corrupted cache changed the report")
	}
	// The mangled records were discarded and rewritten: the next run is
	// warm again.
	again := analyzeCached(t, dir, cacheSrc)
	if again.Cache.Misses != 0 {
		t.Fatalf("recovery run: misses=%d", again.Cache.Misses)
	}
}

// Records written under another format version read as misses with a
// note — a version bump falls back to a cold run, never a wrong report.
func TestCacheVersionSkew(t *testing.T) {
	dir := t.TempDir()
	cold := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]json.RawMessage
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		env["version"] = json.RawMessage("999")
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(path, out, 0o644)
	}
	rep := analyzeCached(t, dir, cacheSrc)
	if rep.Cache.Hits != 0 {
		t.Fatalf("version-skewed cache still hit %d times", rep.Cache.Hits)
	}
	found := false
	for _, n := range rep.Cache.Notes {
		if strings.Contains(n, "format version 999") {
			found = true
		}
	}
	if !found {
		t.Fatalf("skew note missing: %v", rep.Cache.Notes)
	}
	if findingsJSON(t, rep) != findingsJSON(t, cold) {
		t.Fatal("version skew changed the report")
	}
}

// A cold cached run leaves exactly one job record per job in the cache
// directory and nothing else.
func TestCacheHoldsOnlyJobRecords(t *testing.T) {
	dir := t.TempDir()
	rep := analyzeCached(t, dir, cacheSrc)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "job-") || !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("unexpected cache file %s", e.Name())
		}
	}
	if len(ents) != rep.Jobs {
		t.Fatalf("cache holds %d files, want one per job (%d)", len(ents), rep.Jobs)
	}
}

// The full-corpus partial-cache differential: every checker over every
// root entry, with explain (provenance) on, must render byte-identically
// — text, JSON and SARIF — whether every job was solved live or half of
// them came from the disk cache, at -parallel 1 and 8 alike.
func TestPartialCacheDifferentialFullCorpus(t *testing.T) {
	var want string
	for _, parallel := range []int{1, 8} {
		live, err := Analyze(loadCorpus(t), Config{Explain: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		liveOut := renderAll(t, live)
		if want == "" {
			want = liveOut
		} else if liveOut != want {
			t.Fatalf("parallel=%d: live run output depends on parallelism", parallel)
		}

		dir := t.TempDir()
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, cold); got != want {
			t.Fatalf("parallel=%d: cold cached run changed the rendered output", parallel)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		deleted := 0
		for i, name := range names {
			if i%2 == 0 {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
				deleted++
			}
		}
		reg := obs.NewRegistry()
		rep, err := Analyze(loadCorpus(t), Config{Cache: cache, Explain: true, Parallel: parallel, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache.Misses != deleted || rep.Cache.Hits != len(names)-deleted {
			t.Fatalf("parallel=%d: partial run hits=%d misses=%d, want %d/%d",
				parallel, rep.Cache.Hits, rep.Cache.Misses, len(names)-deleted, deleted)
		}
		if n := counter(reg, "driver.jobs_solved"); n != int64(deleted) {
			t.Fatalf("parallel=%d: partial run solved %d jobs, want %d", parallel, n, deleted)
		}
		if got := renderAll(t, rep); got != want {
			t.Fatalf("parallel=%d: partially cached run changed the rendered output", parallel)
		}
	}
}

// raceKeySrc: Top and Other both call helper. The race checker's flow
// returns from helper to every caller, so Top's goroutine reaches
// Other's body: spawning w there races with Top's write although Top's
// call-graph closure (Top, helper) is unchanged.
const raceKeySrc = `package p

var x int

func helper() {}

func Top() {
	helper()
	x = 1
}

func Other() {
	helper()
}

func w() {
	x = 2
}
`

// An edit outside an entry's closure that changes a model checker's
// verdict on that entry must miss both the disk cache and the memo.
func TestModelCheckerKeyCoversConnectedCode(t *testing.T) {
	spawned := strings.Replace(raceKeySrc, "\thelper()\n}\n\nfunc w", "\thelper()\n\tgo w()\n}\n\nfunc w", 1)
	if spawned == raceKeySrc {
		t.Fatal("edit did not apply")
	}
	race, _ := Get("race")
	cfg := Config{Checkers: []*Checker{race}, Entries: []string{"Top"}}
	load := func(src string) *Package {
		pkg, err := LoadFiles([]gosrc.File{{Name: "p.go", Src: src}})
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	want, err := Analyze(load(spawned), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Diagnostics) != 1 {
		t.Fatalf("one-shot run found %d races, want 1", len(want.Diagnostics))
	}

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached := cfg
	cached.Cache = cache
	if _, err := Analyze(load(raceKeySrc), cached); err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(load(spawned), cached)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, got) != renderAll(t, want) {
		t.Fatalf("disk-cached run kept a stale verdict: %+v", got.Diagnostics)
	}

	eng := NewEngine(EngineConfig{})
	req := CheckRequest{Checkers: []string{"race"}, Entries: []string{"Top"}}
	req.Upserts = []gosrc.File{{Name: "p.go", Src: raceKeySrc}}
	if _, err := eng.Check(req); err != nil {
		t.Fatal(err)
	}
	req.Upserts = []gosrc.File{{Name: "p.go", Src: spawned}}
	got, err = eng.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, got) != renderAll(t, want) {
		t.Fatalf("memoized run kept a stale verdict: %+v", got.Diagnostics)
	}
}
