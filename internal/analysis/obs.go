package analysis

import (
	"rasc/internal/gosrc"
	"rasc/internal/ir"
	"rasc/internal/obs"
	"rasc/internal/pdm"
)

// obsState bundles one Analyze run's observability plumbing: the span
// tracer, progress ticker, explain flag and the per-subsystem metric
// bundles derived from Config.Metrics. A nil *obsState (observability
// fully off) short-circuits every helper, so the disabled path costs
// one nil test per hook site.
type obsState struct {
	tracer   *obs.Tracer
	progress *obs.Progress
	explain  bool

	solver  *obs.SolverMetrics
	pdmM    *obs.PDMMetrics
	cacheM  *obs.CacheMetrics
	driverM *obs.DriverMetrics
	specM   *obs.SpecMetrics
}

func newObsState(cfg *Config) *obsState {
	if cfg.Trace == nil && cfg.Metrics == nil && !cfg.Explain && cfg.Progress == nil {
		return nil
	}
	ob := &obsState{tracer: cfg.Trace, progress: cfg.Progress, explain: cfg.Explain}
	if cfg.Metrics != nil {
		ob.solver = obs.NewSolverMetrics(cfg.Metrics)
		ob.pdmM = obs.NewPDMMetrics(cfg.Metrics)
		ob.cacheM = obs.NewCacheMetrics(cfg.Metrics)
		ob.driverM = obs.NewDriverMetrics(cfg.Metrics)
		ob.specM = obs.NewSpecMetrics(cfg.Metrics)
	}
	return ob
}

// recordSpecMetrics feeds the counting-spec bundle from the selected
// checkers' compiled properties, once per Analyze run. These are static
// per-property facts (monoid size, expanded states, saturating tracker
// edges), so a warm cached run reports them identically to a cold one.
func (o *obsState) recordSpecMetrics(checkers []*Checker) {
	if o == nil || o.specM == nil {
		return
	}
	for _, c := range checkers {
		if c.Run != nil {
			continue
		}
		prop, _ := c.compiled()
		if len(prop.Counters) == 0 && len(prop.Relations) == 0 {
			continue
		}
		o.specM.CountingCheckers.Inc()
		o.specM.CounterMonoidSize.SetMax(int64(prop.Mon.Size()))
		o.specM.CounterStates.SetMax(int64(prop.Stats.ExpandedStates))
		o.specM.SaturatingEdges.Add(int64(prop.Stats.SaturatingEdges))
		o.specM.Relations.Add(int64(len(prop.Relations)))
		o.specM.RelationStates.SetMax(int64(prop.Stats.RelationStates))
		o.specM.RelationSaturations.Add(int64(prop.Stats.RelationSaturatingEdges))
	}
}

// span opens a top-level trace span; nil-safe at every layer.
func (o *obsState) span(name string) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.Start(name)
}

// pdmObs builds the skeleton layer's hook bundle, nil when nothing in
// it would fire.
func (o *obsState) pdmObs() *pdm.Obs {
	if o == nil || (o.solver == nil && o.pdmM == nil && !o.explain) {
		return nil
	}
	return &pdm.Obs{Solver: o.solver, PDM: o.pdmM, Explain: o.explain}
}

// jobDone accounts one finished (checker × entry) job.
func (o *obsState) jobDone(solved bool) {
	if o == nil {
		return
	}
	if o.driverM != nil {
		o.driverM.Jobs.Inc()
		if solved {
			o.driverM.JobsSolved.Inc()
		}
	}
	o.progress.Tick()
}

// explainOn reports whether provenance extraction is requested.
func (o *obsState) explainOn() bool { return o != nil && o.explain }

// ensureProvenance guarantees that every diagnostic of an explain run
// carries a non-empty derivation chain. Property-checker findings
// already carry solver-level chains; findings without one (Run-based
// checkers like race and lockorder, whose evidence is a concurrency-
// model witness, and leak findings without a traceable fact) get a
// chain synthesized from their witness trace. Synthesized chains are
// marked by their rules (seed/enter/step/access/finding, never the
// solver rules edge/wrap/pop) — they describe the model's witness
// path, not a constraint derivation.
func ensureProvenance(ds []Diagnostic) {
	for i := range ds {
		d := &ds[i]
		if len(d.Provenance) > 0 {
			continue
		}
		if len(d.Trace) == 0 {
			d.Provenance = []ProvStep{{File: d.File, Line: d.Line, Rule: "finding"}}
			continue
		}
		for j, tp := range d.Trace {
			rule := "step"
			if tp.Enter {
				rule = "enter"
			}
			if j == 0 {
				rule = "seed"
			} else if j == len(d.Trace)-1 {
				rule = "access"
			}
			d.Provenance = append(d.Provenance, ProvStep{
				File: tp.File, Fn: tp.Fn, Line: tp.Line, Rule: rule,
			})
		}
	}
}

// LoadPathsTraced is LoadPaths with the load phase recorded as a trace
// span; a nil tracer makes it equivalent to LoadPaths.
func LoadPathsTraced(paths []string, tr *obs.Tracer) (*Package, error) {
	sp := tr.Start("load")
	files, err := readPathFiles(paths)
	sp.SetAttr("files", len(files))
	sp.Finish()
	if err != nil {
		return nil, err
	}
	return LoadFilesTraced(files, tr)
}

// LoadFilesTraced is LoadFiles with the translate and IR-lowering
// phases recorded as separate trace spans. It mirrors gosrc.Lower,
// split so each phase gets its own span.
func LoadFilesTraced(files []gosrc.File, tr *obs.Tracer) (*Package, error) {
	tsp := tr.Start("translate")
	trn, err := gosrc.TranslateFiles(files)
	tsp.Finish()
	if err != nil {
		return nil, err
	}
	lsp := tr.Start("ir.lower")
	prog, err := ir.New(trn.Prog, ir.Meta{
		Notes:       trn.Notes,
		Ignores:     trn.Ignores,
		FileIgnores: trn.FileIgnores,
		Shared:      trn.Shared,
	})
	if err == nil {
		lsp.SetAttr("functions", len(prog.Funcs))
	}
	lsp.Finish()
	if err != nil {
		return nil, err
	}
	return &Package{Files: files, Prog: prog}, nil
}
