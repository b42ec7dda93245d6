package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rasc/internal/core"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/minic"
	"rasc/internal/obs"
	"rasc/internal/pdm"
)

// Package is a loaded and translated set of Go sources, ready to be
// analyzed any number of times.
type Package struct {
	// Files in load order.
	Files []gosrc.File
	// Prog is the lowered IR: the kernel program, its CFG, the call-graph
	// SCC DAG and per-function fingerprints/summary keys, plus the
	// translation metadata (notes, ignore directives, shared variables).
	Prog *ir.Program

	concOnce sync.Once
	conc     *concModel

	// skels caches the property-independent constraint skeleton per entry
	// function, shared read-only by every property checker's job. The
	// cache is keyed by the checker-registry generation the skeletons
	// were built under; a new checker registration drops it wholesale.
	skelMu  sync.Mutex
	skelGen int
	skels   map[string]*skelEntry
}

type skelEntry struct {
	once sync.Once
	sk   *pdm.Skeleton
	err  error
}

// skeleton returns the cached property-independent skeleton for entry,
// building it on first use. Concurrent callers for the same entry block
// on one build; distinct entries build independently. ob (nil OK)
// records the build as a trace span and feeds the skeleton-layer
// metrics; reuse of an already-built skeleton records nothing.
func (p *Package) skeleton(entry string, ob *obsState) (*pdm.Skeleton, error) {
	gen := generation()
	p.skelMu.Lock()
	if p.skels == nil || p.skelGen != gen {
		p.skelGen = gen
		p.skels = map[string]*skelEntry{}
	}
	e := p.skels[entry]
	if e == nil {
		e = &skelEntry{}
		p.skels[entry] = e
	}
	p.skelMu.Unlock()
	e.once.Do(func() {
		sp := ob.span("skeleton:" + entry)
		callees := eventCallees()
		e.sk, e.err = pdm.BuildSkeleton(p.Prog, entry, core.Options{},
			func(call *minic.CallExpr, _ string) bool { return callees[call.Name] })
		if e.err == nil {
			sp.SetAttr("deferred", e.sk.Deferred())
			if ob != nil && ob.pdmM != nil {
				ob.pdmM.SkeletonBuilds.Inc()
				ob.pdmM.DeferredStmts.Add(int64(e.sk.Deferred()))
			}
		}
		sp.Finish()
	})
	return e.sk, e.err
}

// Config drives one Analyze run.
type Config struct {
	// Checkers to run; nil means every registered checker.
	Checkers []*Checker
	// Entries are the entry functions; nil means the package roots
	// (defined functions never called by another defined function).
	Entries []string
	// Parallel bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// KeepSuppressed reports suppressed diagnostics instead of dropping
	// them (still counted in Report.Suppressed).
	KeepSuppressed bool
	// Cache, when non-nil, enables incremental analysis: per-job results
	// are looked up by content summary before solving and stored after,
	// so repeat runs over unchanged code skip the solver entirely.
	// Suppression is applied to cached results afresh on every run, so
	// //rasc:ignore edits take effect without invalidating anything.
	Cache *Cache
	// Trace, when non-nil, records every driver phase — skeleton builds,
	// per-job cache lookups, solves and stores, the merge — as spans,
	// exportable as Chrome trace-event JSON (obs.Tracer.WriteJSON).
	Trace *obs.Tracer
	// Metrics, when non-nil, receives solver, skeleton-layer, cache and
	// driver counters for the run (obs.Registry.WriteJSON to export).
	Metrics *obs.Registry
	// Explain attaches a solver-level derivation chain (Provenance) to
	// every diagnostic. Findings and their order are unchanged; only the
	// provenance field is added. Explain runs use distinct cache keys,
	// since cached records store diagnostics verbatim.
	Explain bool
	// Progress, when non-nil, receives rate-limited phase/job progress
	// lines (human consumption only; never part of the report).
	Progress *obs.Progress
}

// LoadPaths loads Go sources from a mix of files, directories and
// recursive "dir/..." patterns, and translates them as one package.
// Files ending in _test.go are skipped. The file order (and therefore
// duplicate-definition resolution) is the sorted path order.
func LoadPaths(paths []string) (*Package, error) {
	files, err := readPathFiles(paths)
	if err != nil {
		return nil, err
	}
	return LoadFiles(files)
}

// ReadPathFiles resolves LoadPaths' path patterns (files, directories,
// recursive "dir/..." trees) and reads the files without translating
// them, in the same sorted order LoadPaths analyzes them in. Server
// clients use it to assemble the file set they push to a resident
// engine.
func ReadPathFiles(paths []string) ([]gosrc.File, error) { return readPathFiles(paths) }

// readPathFiles resolves LoadPaths' path patterns and reads the files.
func readPathFiles(paths []string) ([]gosrc.File, error) {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, p := range paths {
		switch {
		case strings.HasSuffix(p, "/...") || p == "...":
			root := strings.TrimSuffix(p, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
		default:
			info, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			if !info.IsDir() {
				// Explicit files are loaded even without a .go suffix.
				if !seen[p] {
					seen[p] = true
					names = append(names, p)
				}
				continue
			}
			entries, err := os.ReadDir(p)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			for _, e := range entries {
				if !e.IsDir() {
					add(filepath.Join(p, e.Name()))
				}
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %v", paths)
	}
	files := make([]gosrc.File, 0, len(names))
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, gosrc.File{Name: name, Src: string(src)})
	}
	return files, nil
}

// LoadFiles translates in-memory sources as one package. Lowering also
// surfaces CFG construction errors (unresolvable labels, stray
// break/continue) at load time, once, instead of per job.
func LoadFiles(files []gosrc.File) (*Package, error) {
	prog, err := gosrc.Lower(files)
	if err != nil {
		return nil, err
	}
	return &Package{Files: files, Prog: prog}, nil
}

// Roots returns the default entry functions: canonical names of defined
// functions that no other defined function calls, sorted; if the call
// graph has no such root (everything is called), every function is an
// entry.
func (p *Package) Roots() []string { return p.Prog.Roots() }

// fileOf maps a (canonical or alias) function name to its source file.
func (p *Package) fileOf(fn string) string { return p.Prog.FileOf(fn) }

// Analyze runs (checker x entry) jobs over a bounded worker pool. The
// property-independent constraint skeleton of each entry is built once
// (first job to need it) and shared read-only: each property job forks
// it and solves only its own event layer. The shared translated program,
// compiled properties and frozen skeletons are read-only, so jobs need
// no locking beyond the skeleton cache's.
//
// With cfg.Cache set, each job's raw result is first looked up by its
// content key (jobKey) and solved only on a miss. A fully warm run
// therefore builds no skeleton and solves no constraint system at all,
// yet reproduces identical diagnostics; Report.Cache records the hit
// and miss counts.
func Analyze(pkg *Package, cfg Config) (*Report, error) {
	return NewEngine(EngineConfig{}).AnalyzePackage(pkg, cfg)
}

// analyze is the driver core shared by the one-shot wrapper and the
// resident Engine. mem is the engine's in-memory job memo, consulted
// before the on-disk cache and fed from every source (a memo miss that
// hits disk, and fresh solves), so a warm engine replays jobs without
// touching disk at all. Memo and disk share one content key, so results
// are byte-identical whichever layer serves them.
func analyze(pkg *Package, cfg Config, mem *jobMemo) (*Report, error) {
	checkers := cfg.Checkers
	if len(checkers) == 0 {
		checkers = All()
	}
	entries := cfg.Entries
	if len(entries) == 0 {
		entries = pkg.Roots()
	}
	for _, e := range entries {
		if _, ok := pkg.Prog.ByName[e]; !ok {
			return nil, fmt.Errorf("analysis: entry function %q not defined", e)
		}
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ob := newObsState(&cfg)
	ob.recordSpecMetrics(checkers)
	var disk *cacheRun
	if cfg.Cache != nil {
		disk = &cacheRun{c: cfg.Cache}
		if ob != nil {
			disk.metrics = ob.cacheM
		}
	}
	reg := registryFingerprint()

	type job struct {
		checker *Checker
		entry   string
	}
	jobs := make([]job, 0, len(checkers)*len(entries))
	for _, c := range checkers {
		for _, e := range entries {
			jobs = append(jobs, job{c, e})
		}
	}
	if ob != nil {
		ob.progress.Phasef("analyzing: %d checker(s) x %d entry(ies), %d job(s)",
			len(checkers), len(entries), len(jobs))
		ob.progress.StartCount("jobs", len(jobs))
	}
	results := make([][]Diagnostic, len(jobs))
	errs := make([]error, len(jobs))
	// Per-request memo accounting, carried on the Report for the
	// server's access logs and flight recorder; the memo's own counters
	// stay engine-wide.
	var memoHits, memoMisses atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c, e := jobs[i].checker, jobs[i].entry
				k := jobKey{reg: reg, explain: cfg.Explain, checker: c.fingerprint(), entry: e, input: inputOf(c, pkg.Prog.ByName[e])}
				var memoHit bool
				results[i], memoHit, errs[i] = serveJob(pkg, c, k, mem, disk, ob)
				if memoHit {
					memoHits.Add(1)
				} else {
					memoMisses.Add(1)
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Notes:      pkg.Prog.Notes,
		Files:      len(pkg.Files),
		Functions:  len(pkg.Prog.Funcs),
		Entries:    entries,
		Jobs:       len(jobs),
		MemoHits:   memoHits.Load(),
		MemoMisses: memoMisses.Load(),
	}
	if disk != nil {
		rep.Cache = disk.stats()
	}
	for _, c := range checkers {
		rep.Checkers = append(rep.Checkers, c.Name)
	}
	sort.Strings(rep.Checkers)
	// Merge in job order (deterministic regardless of completion order),
	// dedup across entries, and apply suppression.
	msp := ob.span("merge")
	seen := map[string]bool{}
	for _, ds := range results {
		for _, d := range ds {
			k := d.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if pkg.suppressed(&d) {
				rep.Suppressed++
				if !cfg.KeepSuppressed {
					continue
				}
			}
			rep.Diagnostics = append(rep.Diagnostics, d)
		}
	}
	sortDiagnostics(rep.Diagnostics)
	msp.SetAttr("diagnostics", len(rep.Diagnostics))
	msp.Finish()
	if ob != nil && ob.driverM != nil {
		ob.driverM.Diagnostics.Add(int64(len(rep.Diagnostics)))
	}
	if ob != nil {
		ob.progress.Phasef("done: %d finding(s)", len(rep.Diagnostics))
	}
	return rep, nil
}

// serveJob returns one job's raw diagnostics from the first layer that
// has them — the memo, then the disk cache (disk nil OK), then a fresh
// solve — and stores what it found in every layer that missed. It
// reports whether the memo served the job.
//
// The memo is consulted before the job span opens: a memo hit is a map
// lookup, and spanning each of them would put the always-on flight
// recorder's cost on the fully-warm hot path (hundreds of span
// allocations per request for sub-microsecond work). Jobs that look at
// the disk cache or solve — the ones that make a request slow and worth
// inspecting — keep their full span tree; the request span's memo
// hit/miss counts cover the rest.
func serveJob(pkg *Package, c *Checker, k jobKey, mem *jobMemo, disk *cacheRun, ob *obsState) ([]Diagnostic, bool, error) {
	if ds, ok := mem.load(k); ok {
		ob.jobDone(false)
		return ds, true, nil
	}
	sp := ob.span("job:" + c.Name + "/" + k.entry)
	defer sp.Finish()
	if disk != nil {
		lsp := sp.Child("cache.lookup")
		ds, ok := disk.load(k)
		lsp.Finish()
		if ok {
			sp.SetAttr("cache", "hit")
			mem.store(k, ds)
			ob.jobDone(false)
			return ds, false, nil
		}
		sp.SetAttr("cache", "miss")
	}
	ssp := sp.Child("solve")
	ds, err := runJob(pkg, c, k.entry, ob)
	ssp.Finish()
	if err != nil {
		return nil, false, err
	}
	if disk != nil {
		wsp := sp.Child("cache.store")
		disk.store(k, ds)
		wsp.Finish()
	}
	mem.store(k, ds)
	ob.jobDone(true)
	return ds, false, nil
}

// suppressed reports whether a //rasc:ignore comment on the diagnostic's
// line, or a //rasc:ignore-file comment in its file, covers its checker.
func (p *Package) suppressed(d *Diagnostic) bool {
	if names, ok := p.Prog.FileIgnores[d.File]; ok && coversChecker(names, d.Checker) {
		return true
	}
	if lines, ok := p.Prog.Ignores[d.File]; ok {
		if names, ok := lines[d.Line]; ok && coversChecker(names, d.Checker) {
			return true
		}
	}
	return false
}

// coversChecker: an empty directive list suppresses every checker.
func coversChecker(names []string, checker string) bool {
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n == checker {
			return true
		}
	}
	return false
}

// runJob executes one (checker, entry) job — a constraint solve for
// property checkers, a concurrency-model query for Run checkers — and
// maps the result to diagnostics. ob (nil OK) supplies metric hooks and
// the explain flag; with explain on, every diagnostic leaves with a
// non-empty provenance chain, so cached records round-trip explain
// output unchanged.
func runJob(pkg *Package, c *Checker, entry string, ob *obsState) ([]Diagnostic, error) {
	if c.Run != nil {
		ds := c.Run(pkg, c, entry)
		if ob.explainOn() {
			ensureProvenance(ds)
		}
		return ds, nil
	}
	prop, events := c.compiled()
	sk, err := pkg.skeleton(entry, ob)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s/%s: %w", c.Name, entry, err)
	}
	res, err := sk.CheckObs(prop, events, ob.pdmObs())
	if err != nil {
		return nil, fmt.Errorf("analysis: %s/%s: %w", c.Name, entry, err)
	}
	var ds []Diagnostic
	switch c.Mode {
	case ModeLeakAtExit:
		ds = leakDiagnostics(pkg, c, entry, res, events)
	default:
		ds = violationDiagnostics(pkg, c, entry, res)
	}
	if ob.explainOn() {
		ensureProvenance(ds)
	}
	return ds, nil
}

func violationDiagnostics(pkg *Package, c *Checker, entry string, res *pdm.Result) []Diagnostic {
	var out []Diagnostic
	for _, v := range res.Violations {
		d := Diagnostic{
			Checker:  c.Name,
			Severity: c.Severity,
			File:     pkg.fileOf(v.Fn),
			Line:     v.Line,
			Message:  c.message(v.Label),
			Label:    v.Label,
			May:      v.May,
			Entry:    entry,
		}
		for _, tp := range v.Trace {
			d.Trace = append(d.Trace, TraceStep{
				File:  pkg.fileOf(tp.Fn),
				Fn:    tp.Fn,
				Line:  tp.Line,
				Enter: tp.Enter,
			})
		}
		d.Provenance = provDiag(pkg, v.Provenance)
		out = append(out, d)
	}
	return out
}

// provDiag positions a pdm provenance chain in the loaded sources.
func provDiag(pkg *Package, prov []pdm.ProvStep) []ProvStep {
	if len(prov) == 0 {
		return nil
	}
	out := make([]ProvStep, len(prov))
	for i, ps := range prov {
		out[i] = ProvStep{
			File:  pkg.fileOf(ps.Fn),
			Fn:    ps.Fn,
			Line:  ps.Line,
			Rule:  ps.Rule,
			Annot: ps.Annot,
		}
	}
	return out
}

// leakDiagnostics reports each label still accepting at the entry's
// exit, positioned at the earliest event that mentions the label (its
// acquisition site).
func leakDiagnostics(pkg *Package, c *Checker, entry string, res *pdm.Result, events *minic.EventMap) []Diagnostic {
	labels, mayOf := res.OpenInstancesAtExitDetail(entry)
	if len(labels) == 0 {
		return nil
	}
	type site struct {
		fn   string
		line int
	}
	// Candidate sites are the run's nodes — the entry's call-graph
	// closure: for package-level resources (a shared semaphore, a pool)
	// the same label is touched by unrelated functions, and the finding
	// should point into the entry being reported.
	sites := map[string]site{}
	nodes := res.CFG().Nodes
	for _, id := range res.Nodes() {
		n := nodes[id]
		if n.Kind != minic.NAction {
			continue
		}
		ev, ok := events.Match(n.Call, n.AssignTo)
		if !ok || ev.Label == "" {
			continue
		}
		if s, ok := sites[ev.Label]; !ok || n.Line < s.line {
			sites[ev.Label] = site{n.Fn, n.Line}
		}
	}
	var out []Diagnostic
	for _, lbl := range labels {
		s, ok := sites[lbl]
		if !ok {
			// No event site (shouldn't happen): fall back to the entry
			// function's definition line.
			s = site{entry, pkg.Prog.MC.ByName[entry].Line}
		}
		out = append(out, Diagnostic{
			Checker:  c.Name,
			Severity: c.Severity,
			File:     pkg.fileOf(s.fn),
			Line:     s.line,
			Message:  c.message(lbl),
			Label:    lbl,
			May:      mayOf[lbl],
			Entry:    entry,
			// ExitProvenance returns nil unless the run was checked with
			// explain on.
			Provenance: provDiag(pkg, res.ExitProvenance(entry, lbl)),
		})
	}
	return out
}
