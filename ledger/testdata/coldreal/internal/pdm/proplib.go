package pdm

import (
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// This file is a small library of ready-made temporal safety properties in
// the style of the MOPS property suite (Chen/Dean/Wagner), beyond the
// privilege model used for Table 1. Each comes with the event mapping
// from C calls to its alphabet.

// ChrootSpecSrc: a process that calls chroot() must immediately chdir("/")
// before any filesystem operation, or relative paths can escape the jail
// (MOPS property "chroot without chdir").
const ChrootSpecSrc = `
start state Clean :
    | chroot -> Jailed;

state Jailed :
    | chdir_root -> Clean
    | fsop -> Error;

accept state Error;
`

// ChrootProperty compiles ChrootSpecSrc.
func ChrootProperty() *spec.Property { return spec.MustCompile(ChrootSpecSrc) }

// ChrootEvents maps calls for the chroot property: chdir("/") clears the
// jailed state, any other filesystem call while jailed is an error.
func ChrootEvents() *minic.EventMap {
	rules := []minic.Rule{
		{Callee: "chroot", ArgIndex: -1, Symbol: "chroot"},
		{Callee: "chdir", ArgIndex: 0, Equals: `"/"`, Symbol: "chdir_root"},
	}
	for _, fs := range []string{"open", "fopen", "stat", "unlink", "rename", "execl", "execv"} {
		rules = append(rules, minic.Rule{Callee: fs, ArgIndex: -1, Symbol: "fsop"})
	}
	return &minic.EventMap{Rules: rules}
}

// TempFileSpecSrc: opening a path produced by mktemp() is a race (TOCTOU);
// the name must be tracked per variable, so the property is parametric
// (MOPS property "insecure temporary files", simplified).
const TempFileSpecSrc = `
start state Clean :
    | mktemp(x) -> Risky;

state Risky :
    | openexcl(x) -> Clean
    | openplain(x) -> Error;

accept state Error;
`

// TempFileProperty compiles TempFileSpecSrc.
func TempFileProperty() *spec.Property { return spec.MustCompile(TempFileSpecSrc) }

// TempFileEvents maps calls: p = mktemp(...) marks p risky; open(p) is
// flagged unless the mode argument mentions O_EXCL.
func TempFileEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "mktemp", ArgIndex: -1, Symbol: "mktemp", LabelArg: -1, LabelFromAssign: true},
		{Callee: "open", ArgIndex: 1, Equals: "O_EXCL", Symbol: "openexcl", LabelArg: 0},
		{Callee: "open", ArgIndex: -1, Symbol: "openplain", LabelArg: 0},
	}}
}
