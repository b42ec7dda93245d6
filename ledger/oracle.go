package main

import (
	"encoding/json"
	"fmt"
	"os"

	"rasc/internal/analysis"
)

// finding is the part of a diagnostic the oracle pins: what was found
// and where. Witness traces are left out, since an edit may add a hop
// through the rewritten line without changing the finding.
type finding struct {
	Checker  string `json:"checker"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Label    string `json:"label,omitempty"`
	May      bool   `json:"may,omitempty"`
	Message  string `json:"message"`
}

// expected is one committed oracle file.
type expected struct {
	Corpus     string    `json:"corpus"`
	Suppressed int       `json:"suppressed"`
	Findings   []finding `json:"findings"`
}

func findingsOf(rep *analysis.Report) []finding {
	out := make([]finding, len(rep.Diagnostics))
	for i, d := range rep.Diagnostics {
		out[i] = finding{
			Checker:  d.Checker,
			Severity: d.Severity.String(),
			File:     d.File,
			Line:     d.Line,
			Label:    d.Label,
			May:      d.May,
			Message:  d.Message,
		}
	}
	return out
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var exp expected
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", path, err)
	}
	return &exp, nil
}

// writeExpected records a report as an oracle file, for review by hand
// before it is committed.
func writeExpected(path, corpus string, rep *analysis.Report) error {
	exp := expected{Corpus: corpus, Suppressed: rep.Suppressed, Findings: findingsOf(rep)}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mismatch describes how a report differs from the oracle, or returns
// "" when it matches. Diagnostics come sorted, so order is compared too.
func (exp *expected) mismatch(rep *analysis.Report) string {
	got := findingsOf(rep)
	if rep.Suppressed != exp.Suppressed {
		return fmt.Sprintf("suppressed %d, want %d", rep.Suppressed, exp.Suppressed)
	}
	if len(got) != len(exp.Findings) {
		return fmt.Sprintf("%d findings, want %d", len(got), len(exp.Findings))
	}
	for i := range got {
		if got[i] != exp.Findings[i] {
			return fmt.Sprintf("finding %d is %+v, want %+v", i, got[i], exp.Findings[i])
		}
	}
	return ""
}
