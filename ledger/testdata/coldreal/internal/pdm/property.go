package pdm

import (
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// SimplePrivilegeSpecSrc is the Figure 3 property: a process must not
// execl while holding an effective uid of root acquired by seteuid(0).
const SimplePrivilegeSpecSrc = `
start state Unpriv :
    | seteuid_zero -> Priv;

state Priv :
    | seteuid_nonzero -> Unpriv
    | execl -> Error;

accept state Error;
`

// FullPrivilegeSpecSrc is our reconstruction of the complete process
// privilege model used for Table 1 (MOPS "Property 1": 11 states, 9
// alphabet symbols; the original automaton from Chen/Dean/Wagner is not
// published in the paper, so this is a faithful substitution with the
// same state and alphabet counts).
//
// The model tracks the (ruid, euid, suid) triple of a setuid-root program
// abstracted to root/user, whether supplementary groups were dropped, and
// an initial "unknown" state:
//
//	Start             initial: uids unknown, conservatively dangerous
//	ER / ERG          ruid=user, euid=root, suid=root (typical setuid-root
//	                  entry), groups kept / dropped
//	RA / RAG          all ids root
//	EU / EUG          ruid=root, euid=user, suid=root (dropped, can regain)
//	TD / TDG          temporary drop: ruid=user, euid=user, suid=root
//	Dropped           fully and permanently unprivileged (also the benign
//	                  post-exec state)
//	Error             executed an untrusted program while dangerous
//
// exec is dangerous when euid is (or may be) root, or when saved uid is
// root with supplementary groups retained. setuid(0) from EU succeeds
// because ruid is root; from TD it fails. setreuid(u,u) and
// setresuid(u,u,u) drop permanently (the saved uid follows the new euid).
// setgroups is not tracked in the unknown Start state.
const FullPrivilegeSpecSrc = `
start state Start :
    | seteuid_zero -> ER
    | seteuid_nonzero -> TD
    | setuid_zero -> RA
    | setuid_nonzero -> Dropped
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | fork -> Start
    | exec -> Error;

state ER :
    | seteuid_nonzero -> TD
    | setuid_zero -> RA
    | setuid_nonzero -> Dropped
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | setgroups -> ERG
    | exec -> Error;

state ERG :
    | seteuid_nonzero -> TDG
    | setuid_zero -> RAG
    | setuid_nonzero -> Dropped
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | exec -> Error;

state RA :
    | seteuid_nonzero -> EU
    | setuid_nonzero -> Dropped
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | setgroups -> RAG
    | exec -> Error;

state RAG :
    | seteuid_nonzero -> EUG
    | setuid_nonzero -> Dropped
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | exec -> Error;

state EU :
    | seteuid_zero -> RA
    | setuid_zero -> RA
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | setgroups -> EUG
    | exec -> Error;

state EUG :
    | seteuid_zero -> RAG
    | setuid_zero -> RAG
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | exec -> Dropped;

state TD :
    | seteuid_zero -> ER
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | setgroups -> TDG
    | exec -> Error;

state TDG :
    | seteuid_zero -> ERG
    | setreuid_nonzero -> Dropped
    | setresuid_nonzero -> Dropped
    | exec -> Dropped;

state Dropped;

accept state Error;
`

// SimplePrivilegeProperty compiles the Figure 3 property.
func SimplePrivilegeProperty() *spec.Property {
	return spec.MustCompile(SimplePrivilegeSpecSrc)
}

// FullPrivilegeProperty compiles the Table 1 property (11 states, 9
// symbols).
func FullPrivilegeProperty() *spec.Property {
	return spec.MustCompile(FullPrivilegeSpecSrc)
}

// FullPrivilegeEvents maps C calls to the full property's alphabet.
func FullPrivilegeEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "seteuid", ArgIndex: 0, Equals: "0", Symbol: "seteuid_zero"},
		{Callee: "seteuid", ArgIndex: 0, NotEquals: "0", Symbol: "seteuid_nonzero"},
		{Callee: "setuid", ArgIndex: 0, Equals: "0", Symbol: "setuid_zero"},
		{Callee: "setuid", ArgIndex: 0, NotEquals: "0", Symbol: "setuid_nonzero"},
		{Callee: "setreuid", ArgIndex: -1, Symbol: "setreuid_nonzero"},
		{Callee: "setresuid", ArgIndex: -1, Symbol: "setresuid_nonzero"},
		{Callee: "setgroups", ArgIndex: -1, Symbol: "setgroups"},
		{Callee: "fork", ArgIndex: -1, Symbol: "fork"},
		{Callee: "execl", ArgIndex: -1, Symbol: "exec"},
		{Callee: "execv", ArgIndex: -1, Symbol: "exec"},
		{Callee: "execvp", ArgIndex: -1, Symbol: "exec"},
		{Callee: "system", ArgIndex: -1, Symbol: "exec"},
	}}
}
