package analysis

import (
	"sort"

	"rasc/internal/gosrc"
)

// Diagnostic is one finding, positioned in the original Go source.
type Diagnostic struct {
	// Checker is the registry name of the checker that produced it.
	Checker string `json:"checker"`
	// Severity is error, warning or note.
	Severity Severity `json:"severity"`
	// File and Line locate the finding in the loaded sources.
	File string `json:"file"`
	Line int    `json:"line"`
	// Message is the human-readable finding text.
	Message string `json:"message"`
	// Label is the parameter instantiation (the offending mutex, file,
	// ...), "" for non-parametric findings.
	Label string `json:"label,omitempty"`
	// May marks a verdict that rests on a saturated counter or relation
	// valuation: the tracker lost the exact value, so the finding is
	// possible but not witnessed by an exact execution. Omitted (false)
	// for definite findings, keeping prior reports byte-identical.
	May bool `json:"may,omitempty"`
	// Entry is the entry function whose run found it.
	Entry string `json:"entry,omitempty"`
	// Trace is the witness path, oldest hop first (empty for leak-mode
	// findings, which have no single violating statement).
	Trace []TraceStep `json:"trace,omitempty"`
	// SecondTrace is the second witness for two-sided findings: the
	// other goroutine's path to a racy access, or the inverted
	// acquisition order of a lock-order finding.
	SecondTrace []TraceStep `json:"second_trace,omitempty"`
	// Provenance is the derivation chain behind the finding, oldest hop
	// first, present only on explain runs (Config.Explain / -explain).
	// Property-checker findings carry a solver-level chain (rules seed,
	// edge, wrap, pop, plus the final event/exit transition); findings
	// without one get a chain synthesized from their witness trace
	// (rules seed, enter, step, access, finding). Omitted from JSON when
	// empty, so non-explain reports are byte-identical to before.
	Provenance []ProvStep `json:"provenance,omitempty"`
}

// ProvStep is one hop of a finding's derivation chain.
type ProvStep struct {
	File string `json:"file,omitempty"`
	Fn   string `json:"fn,omitempty"`
	Line int    `json:"line"`
	// Rule names the derivation rule that produced the hop.
	Rule string `json:"rule"`
	// Annot is the composed automaton annotation at this hop, rendered
	// through the property's algebra ("" for synthesized chains).
	Annot string `json:"annot,omitempty"`
}

// TraceStep is one hop of a witness trace.
type TraceStep struct {
	File string `json:"file"`
	Fn   string `json:"fn"`
	Line int    `json:"line"`
	// Enter marks hops that enter a callee through a call site.
	Enter bool `json:"enter,omitempty"`
}

// key identifies a diagnostic for deduplication across entry functions:
// two roots reaching the same defect report it once.
func (d *Diagnostic) key() string {
	return d.Checker + "\x00" + d.File + "\x00" + itoa(d.Line) + "\x00" + d.Label + "\x00" + d.Message
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Report is the outcome of one driver run.
type Report struct {
	// Diagnostics, deduplicated and ordered by file, line, checker.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Notes are translation imprecisions (goto, ambiguous methods, ...).
	Notes []gosrc.Note `json:"notes,omitempty"`
	// Suppressed counts diagnostics dropped by //rasc:ignore comments.
	Suppressed int `json:"suppressed"`
	// Files, Functions, Checkers and Jobs describe the run's shape.
	Files     int      `json:"files"`
	Functions int      `json:"functions"`
	Checkers  []string `json:"checkers"`
	Entries   []string `json:"entries"`
	Jobs      int      `json:"jobs"`
	// Cache summarizes incremental-cache effectiveness; nil when the run
	// had no cache, keeping cacheless reports byte-identical to before.
	Cache *CacheStats `json:"cache,omitempty"`

	// Request telemetry, populated by the resident Engine and excluded
	// from every rendered form (json:"-") so findings and reports stay
	// byte-identical whether or not telemetry is on. TraceID identifies
	// the request; TraceJSON holds its Chrome trace when the request
	// asked for one inline; MemoHits/MemoMisses count this request's
	// job-memo lookups.
	TraceID    string `json:"-"`
	TraceJSON  []byte `json:"-"`
	MemoHits   int64  `json:"-"`
	MemoMisses int64  `json:"-"`
}

// HasFindings reports whether any diagnostic of Severity error or
// warning survived suppression (the CI failure condition).
func (r *Report) HasFindings() bool {
	return r.HasFindingsAtLeast(SeverityWarning)
}

// HasFindingsAtLeast reports whether any surviving diagnostic is at
// least as severe as min (severities rank error > warning > note).
func (r *Report) HasFindingsAtLeast(min Severity) bool {
	for _, d := range r.Diagnostics {
		if d.Severity <= min {
			return true
		}
	}
	return false
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Message < b.Message
	})
}
