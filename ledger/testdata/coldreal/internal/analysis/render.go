package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// Text writes the human-readable report: one line per diagnostic with
// its witness trace(s) indented, then notes and a summary.
func (r *Report) Text(w io.Writer) error {
	for _, d := range r.Diagnostics {
		// May verdicts rest on a saturated counter/relation valuation; the
		// marker keeps definite findings byte-identical to before.
		may := ""
		if d.May {
			may = " (may)"
		}
		if _, err := fmt.Fprintf(w, "%s:%d: %s: %s: %s%s\n", d.File, d.Line, d.Severity, d.Checker, d.Message, may); err != nil {
			return err
		}
		if err := writeTrace(w, d.Trace); err != nil {
			return err
		}
		if len(d.SecondTrace) > 0 {
			if _, err := fmt.Fprintln(w, "  concurrent with:"); err != nil {
				return err
			}
			if err := writeTrace(w, d.SecondTrace); err != nil {
				return err
			}
		}
		if len(d.Provenance) > 0 {
			if _, err := fmt.Fprintln(w, "  derivation:"); err != nil {
				return err
			}
			for _, ps := range d.Provenance {
				annot := ""
				if ps.Annot != "" {
					annot = " [" + ps.Annot + "]"
				}
				loc := ps.File
				if ps.Fn != "" {
					loc = ps.Fn + " (" + ps.File + ")"
				}
				if _, err := fmt.Fprintf(w, "    %-6s %s:%d%s\n", ps.Rule, loc, ps.Line, annot); err != nil {
					return err
				}
			}
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "%s:%d: note: translate: %s\n", n.File, n.Line, n.Msg); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d finding(s), %d suppressed; %d file(s), %d function(s), %d job(s)\n",
		len(r.Diagnostics), r.Suppressed, r.Files, r.Functions, r.Jobs)
	return err
}

func writeTrace(w io.Writer, trace []TraceStep) error {
	for _, tp := range trace {
		arrow := "via"
		if tp.Enter {
			arrow = "into"
		}
		if _, err := fmt.Fprintf(w, "    %s %s (%s:%d)\n", arrow, tp.Fn, tp.File, tp.Line); err != nil {
			return err
		}
	}
	return nil
}

// Github writes one GitHub Actions workflow command per diagnostic
// (::error file=...,line=...::message), so a CI step's findings surface
// as inline annotations on the pull request without extra tooling.
func (r *Report) Github(w io.Writer) error {
	for _, d := range r.Diagnostics {
		level := "error"
		switch d.Severity {
		case SeverityWarning:
			level = "warning"
		case SeverityNote:
			level = "notice"
		}
		msg := d.Message
		if d.Checker != "" {
			msg = d.Checker + ": " + msg
		}
		if _, err := fmt.Fprintf(w, "::%s file=%s,line=%d::%s\n", level, d.File, d.Line, escapeGithub(msg)); err != nil {
			return err
		}
	}
	return nil
}

// escapeGithub applies the workflow-command data escaping rules.
func escapeGithub(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			out = append(out, "%25"...)
		case '\r':
			out = append(out, "%0D"...)
		case '\n':
			out = append(out, "%0A"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// JSON writes the report as indented JSON.
func (r *Report) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SARIF 2.1.0 output, for CI annotation tooling.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
	CodeFlows []sarifCodeFlow `json:"codeFlows,omitempty"`
	// Properties is the SARIF property bag; explain runs carry the
	// finding's derivation chain under the "provenance" key.
	Properties map[string]any `json:"properties,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	Message          *sarifMessage         `json:"message,omitempty"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

type sarifCodeFlow struct {
	ThreadFlows []sarifThreadFlow `json:"threadFlows"`
}

type sarifThreadFlow struct {
	Locations []sarifThreadFlowLocation `json:"locations"`
}

type sarifThreadFlowLocation struct {
	Location sarifLocation `json:"location"`
}

// SARIF writes the report in SARIF 2.1.0, one run with one rule per
// checker that produced or could have produced findings; witness traces
// become codeFlows.
func (r *Report) SARIF(w io.Writer) error {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifDriver{
			Name:           "gocheck",
			InformationURI: "https://example.invalid/rasc",
		}},
		Results: []sarifResult{},
	}
	for _, name := range r.Checkers {
		rule := sarifRule{ID: name}
		if c, ok := Get(name); ok {
			rule.ShortDescription = sarifMessage{Text: c.Doc}
		}
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, rule)
	}
	for _, d := range r.Diagnostics {
		res := sarifResult{
			RuleID:  d.Checker,
			Level:   d.Severity.String(),
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line},
				},
			}},
		}
		// A two-sided finding (race, lockorder) renders as ONE codeFlow
		// with TWO threadFlows — SARIF's native shape for concurrent
		// witness paths.
		var flows []sarifThreadFlow
		for _, trace := range [][]TraceStep{d.Trace, d.SecondTrace} {
			if len(trace) == 0 {
				continue
			}
			tf := sarifThreadFlow{}
			for _, tp := range trace {
				tf.Locations = append(tf.Locations, sarifThreadFlowLocation{
					Location: sarifLocation{
						PhysicalLocation: sarifPhysicalLocation{
							ArtifactLocation: sarifArtifactLocation{URI: tp.File},
							Region:           sarifRegion{StartLine: tp.Line},
						},
						Message: &sarifMessage{Text: tp.Fn},
					},
				})
			}
			flows = append(flows, tf)
		}
		if len(flows) > 0 {
			res.CodeFlows = []sarifCodeFlow{{ThreadFlows: flows}}
		}
		if len(d.Provenance) > 0 {
			res.Properties = map[string]any{"provenance": d.Provenance}
		}
		if d.May {
			if res.Properties == nil {
				res.Properties = map[string]any{}
			}
			res.Properties["may"] = true
		}
		run.Results = append(run.Results, res)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
