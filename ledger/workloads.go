package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/obs"
	"rasc/internal/server"
)

// env is what every workload shares.
type env struct {
	root     string // checkout root: pinned input and oracle live under it
	work     string // scratch directory this run may write (cache dirs)
	seed     int64
	parallel int
}

// session is one workload, set up and ready to run operations.
type session interface {
	// op runs operation i and returns its report and wall time. With
	// traced set it records the benchmark's layer spans, reads the
	// program's own spans and counters, and adds them into L.
	op(i int, traced bool, L map[string]float64) (*analysis.Report, time.Duration, error)
	close() error
}

// workload names one benchmark workload.
type workload struct {
	name string
	// oracle is the expected-findings file every operation must match.
	oracle string
	// opName and tailName are the workload's own names for the operation
	// time and its tail, printed in the human-readable report.
	opName, tailName string
	// tail is the quantile op_tail_ms reports: the highest percentile
	// with at least ten samples beyond it at the workload's usual sample
	// count in a 30-second run (about 5 cold runs, 220 commits, 280
	// edits), or the maximum where no percentile has.
	tail float64
	// counted is how many traced operations the exact counters cover.
	counted int
	setup   func(e *env, rep int) (session, error)
}

var workloads = []workload{
	{name: "cold-real", oracle: "coldreal.json", opName: "cold_s", tailName: "cold_max_s", tail: 1, counted: 1, setup: setupColdReal},
	{name: "edit-stream", oracle: "synthetic.json", opName: "edit_p50_ms", tailName: "edit_p95_ms", tail: 0.95, counted: 4, setup: setupEditStream},
	{name: "commit-rerun", oracle: "synthetic.json", opName: "rerun_p50_ms", tailName: "rerun_p90_ms", tail: 0.90, counted: 4, setup: setupCommitRerun},
}

// compileSpecs compiles every property checker's specification and
// event map afresh: the set-up cost each fresh process pays before its
// first job. The analysis registry keeps its own compiled copies.
func compileSpecs() {
	for _, c := range analysis.All() {
		if c.NewProperty != nil {
			c.NewProperty()
			c.NewEvents()
		}
	}
}

// oneShot is a gocheck-style run per operation: sources → translate →
// lower → Analyze → SARIF, with a fresh Package each time.
type oneShot struct {
	e *env
	// source yields operation i's files; timedRead puts the call inside
	// the measured operation (cold-real reads from disk as gocheck does;
	// a new commit's sources exist before its CI run starts).
	source    func(i int) ([]gosrc.File, error)
	timedRead bool
	cache     *analysis.Cache
	// base lists the cache directory after set-up; files an operation
	// adds are removed afterwards, so every operation starts from the
	// cache set-up populated.
	base map[string]bool
}

func (s *oneShot) op(i int, traced bool, L map[string]float64) (*analysis.Report, time.Duration, error) {
	var files []gosrc.File
	var err error
	if !s.timedRead {
		if files, err = s.source(i); err != nil {
			return nil, 0, err
		}
	}
	var tr *obs.Tracer
	var reg *obs.Registry
	// Each operation starts with the previous one's garbage collected.
	runtime.GC()
	if traced {
		reg = obs.NewRegistry()
		tr = obs.NewTracer()
	}
	t0 := time.Now()
	if s.timedRead {
		sp := tr.Start("bench.read")
		files, err = s.source(i)
		sp.Finish()
		if err != nil {
			return nil, 0, err
		}
	}
	sp := tr.Start("bench.translate")
	trn, err := gosrc.TranslateFiles(files)
	sp.Finish()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start("bench.lower")
	prog, err := ir.New(trn.Prog, ir.Meta{Notes: trn.Notes, Ignores: trn.Ignores, FileIgnores: trn.FileIgnores, Shared: trn.Shared})
	sp.Finish()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start("bench.analyze")
	rep, err := analysis.Analyze(&analysis.Package{Files: files, Prog: prog}, analysis.Config{
		Parallel: s.e.parallel,
		Cache:    s.cache,
		Trace:    tr,
		Metrics:  reg,
	})
	sp.Finish()
	if err != nil {
		return nil, 0, err
	}
	// As gocheck does: cache statistics are not part of the rendering.
	rep.Cache = nil
	sp = tr.Start("bench.render")
	var out bytes.Buffer
	err = rep.SARIF(&out)
	sp.Finish()
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if err := s.restoreCache(); err != nil {
		return nil, 0, err
	}
	if traced {
		evs, err := traceEvents(tr)
		if err != nil {
			return nil, 0, err
		}
		for _, ev := range evs {
			switch ev.Name {
			case "bench.read":
				L["gosrc.read_ms"] += float64(ev.Dur) / usPerMs
			case "bench.translate":
				L["gosrc.translate_ms"] += float64(ev.Dur) / usPerMs
			case "bench.lower":
				L["ir.lower_ms"] += float64(ev.Dur) / usPerMs
			case "bench.render":
				L["analysis.render_ms"] += float64(ev.Dur) / usPerMs
			}
		}
		engineLayers(evs, L)
		wallUS := wall.Microseconds()
		L["unattributed_ms"] += float64(wallUS-covered(spansOf(evs, "bench.analyze"), 0, wallUS)) / usPerMs
		snap := reg.Snapshot()
		counterLayers(&snap, nil, L)
		L["gosrc.files"] += float64(len(files))
		L["gosrc.functions"] += float64(len(trn.Prog.Funcs))
		L["ir.functions"] += float64(len(prog.Funcs))
	}
	return rep, wall, nil
}

// restoreCache removes what the last operation wrote to the cache.
func (s *oneShot) restoreCache() error {
	if s.cache == nil {
		return nil
	}
	ents, err := os.ReadDir(s.cache.Dir())
	if err != nil {
		return err
	}
	for _, de := range ents {
		if !s.base[de.Name()] {
			if err := os.Remove(filepath.Join(s.cache.Dir(), de.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *oneShot) close() error {
	if s.cache != nil {
		return os.RemoveAll(s.cache.Dir())
	}
	return nil
}

// setupColdReal verifies the pinned tree and compiles the specs.
func setupColdReal(e *env, _ int) (session, error) {
	files, err := readPinned(e.root)
	if err != nil {
		return nil, err
	}
	if got := treeDigest(files); got != pinnedSum {
		return nil, fmt.Errorf("pinned tree %s has digest %s, want %s", pinnedDir, got, pinnedSum)
	}
	compileSpecs()
	return &oneShot{e: e, source: func(int) ([]gosrc.File, error) { return readPinned(e.root) }, timedRead: true}, nil
}

// populate analyses the base corpus once against a fresh cache
// directory.
func populate(e *env, dir string, base []gosrc.File) (*analysis.Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := analysis.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := analysis.LoadFiles(base)
	if err != nil {
		return nil, err
	}
	if _, err := analysis.Analyze(pkg, analysis.Config{Parallel: e.parallel, Cache: cache}); err != nil {
		return nil, err
	}
	return cache, nil
}

// setupCommitRerun generates the base corpus and populates a disk cache
// from it; each operation is the base corpus plus one fresh edit.
func setupCommitRerun(e *env, rep int) (session, error) {
	base := generateBase()
	compileSpecs()
	cache, err := populate(e, filepath.Join(e.work, fmt.Sprintf("rerun-cache-%d", rep)), base)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(cache.Dir())
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, de := range ents {
		names[de.Name()] = true
	}
	ed, err := newEditor(base, e.seed)
	if err != nil {
		return nil, err
	}
	source := func(int) ([]gosrc.File, error) {
		fi, f := ed.next()
		ed.undo(fi)
		files := append([]gosrc.File(nil), base...)
		files[fi] = f
		return files, nil
	}
	return &oneShot{e: e, source: source, cache: cache, base: names}, nil
}

// daemon is a warm gocheckd, configured as the command configures it
// by default plus -cache-dir, served over loopback to one client.
type daemon struct {
	ed       *editor
	srv      *http.Server
	served   chan error
	client   *server.Client
	cacheDir string
}

func setupEditStream(e *env, rep int) (session, error) {
	base := generateBase()
	compileSpecs()
	dir := filepath.Join(e.work, fmt.Sprintf("daemon-cache-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := analysis.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	registry := obs.NewRegistry()
	flight := obs.NewFlight(obs.FlightConfig{Recent: 64, Slowest: 8, Metrics: registry})
	engine := analysis.NewEngine(analysis.EngineConfig{
		Cache:    cache,
		Parallel: e.parallel,
		Metrics:  registry,
		Flight:   flight,
	})
	h := server.NewHandler(server.HandlerConfig{
		Engine:   engine,
		Registry: registry,
		Flight:   flight,
		Log:      obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	ed, err := newEditor(base, e.seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		ed:       ed,
		srv:      &http.Server{Handler: h.Root()},
		served:   make(chan error, 1),
		client:   server.NewClient(ln.Addr().String()),
		cacheDir: dir,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	// The seed push: the full file set, analysed cold.
	if _, err := d.client.CheckFiles("", base, server.CheckRequest{}); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) op(i int, traced bool, L map[string]float64) (*analysis.Report, time.Duration, error) {
	d.ed.next()
	files := d.ed.files()
	if !traced {
		t0 := time.Now()
		rep, err := d.client.CheckFiles("", files, server.CheckRequest{})
		if err != nil {
			return nil, 0, err
		}
		var out bytes.Buffer
		err = rep.SARIF(&out)
		return rep, time.Since(t0), err
	}
	before, err := d.client.Metrics()
	if err != nil {
		return nil, 0, err
	}
	tr := obs.NewTracer()
	t0 := time.Now()
	// CheckFiles with ?trace=1: the same manifest fetch, delta and post.
	sp := tr.Start("bench.manifest")
	m, err := d.client.Manifest("")
	sp.Finish()
	if err != nil {
		return nil, 0, err
	}
	ups, rms := server.Delta(files, m.Files)
	sp = tr.Start("bench.check")
	rep, err := d.client.CheckTraced(server.CheckRequest{Upserts: ups, Removes: rms})
	sp.Finish()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start("bench.render")
	var out bytes.Buffer
	err = rep.SARIF(&out)
	sp.Finish()
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	after, err := d.client.Metrics()
	if err != nil {
		return nil, 0, err
	}
	counterLayers(&after.Metrics, &before.Metrics, L)
	evs, err := traceEvents(tr)
	if err != nil {
		return nil, 0, err
	}
	srvEvs, err := parseTrace(rep.TraceJSON)
	if err != nil {
		return nil, 0, err
	}
	engineLayers(srvEvs, L)
	var request *event
	var inner []span
	for i, ev := range srvEvs {
		if strings.HasPrefix(ev.Name, "request:") {
			request = &srvEvs[i]
		} else {
			inner = append(inner, span{ev.TS, ev.end()})
		}
	}
	if request == nil {
		return nil, 0, errors.New("daemon trace has no request span")
	}
	L["ir.relower_ms"] += float64(request.Dur-covered(inner, request.TS, request.end())) / usPerMs
	var client int64
	for _, ev := range evs {
		switch ev.Name {
		case "bench.manifest", "bench.check":
			client += ev.Dur
		case "bench.render":
			L["analysis.render_ms"] += float64(ev.Dur) / usPerMs
		}
	}
	L["server.http_ms"] += float64(client-request.Dur) / usPerMs
	wallUS := wall.Microseconds()
	L["unattributed_ms"] += float64(wallUS-covered(spansOf(evs), 0, wallUS)) / usPerMs
	L["gosrc.files"] += float64(rep.Files)
	L["gosrc.functions"] += float64(rep.Functions)
	L["ir.functions"] += float64(rep.Functions)
	return rep, wall, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.cacheDir); err == nil {
		err = rerr
	}
	return err
}
