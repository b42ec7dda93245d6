package gosrc

import (
	"rasc/internal/minic"
	"rasc/internal/spec"
)

// Counting (bounded-counter) properties for Go API-usage checking. Each
// declares a counter that saturates at its bound, so the property's
// transition monoid stays finite (see internal/spec/counter.go); a
// verdict that rests on a saturated counter is a may-report.

// SemaBalanceSpecSrc: semaphore acquires must balance releases on every
// path — releasing more than was acquired fails immediately (the
// difference would go negative), and a nonzero difference at function
// exit means permits are still held. Parametric in the semaphore value.
//
// v2 tracks the acquire/release *difference* relationally instead of one
// saturating counter: acq and rel are individually unbounded (neither is
// asserted on its own, so neither gets a tracker), and the single zone
// tracker follows acq − rel through [0, 6]. A run of 5 acquires balanced
// by 5 releases stays exact — the v1 counter saturated at 4 and had to
// may-report it — so balanced heavy traffic now verifies definitely, and
// only differences beyond 6 degrade to may-reports.
const SemaBalanceSpecSrc = `
counter acq bound 8;
counter rel bound 8;

relate acq - rel in [0, 6];

start state S :
    | acquire(x) [acq += 1] -> S
    | release(x) [rel += 1] -> S;

assert acq - rel >= 0;
assert acq - rel == 0 at exit;
`

// SemaBalanceIndepSpecSrc is the v1 independent-counter form of the
// semaphore-balance property, kept as the differential baseline for the
// relational tracker (see counting tests): same events, same verdict
// shape, but the single counter saturates at 4 outstanding permits.
const SemaBalanceIndepSpecSrc = `
counter c bound 4;

start state S :
    | acquire(x) [c += 1] -> S
    | release(x) [c -= 1] -> S;

assert c >= 0;
assert c == 0 at exit;
`

// SemaBalanceProperty compiles SemaBalanceSpecSrc.
func SemaBalanceProperty() *spec.Property { return spec.MustCompile(SemaBalanceSpecSrc) }

// SemaBalanceEvents: sem.Acquire(...)/sem.Release(...) in the
// golang.org/x/sync/semaphore style, labelled by the receiver.
func SemaBalanceEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Acquire", ArgIndex: -1, Symbol: "acquire", LabelArg: 0},
		{Callee: "Release", ArgIndex: -1, Symbol: "release", LabelArg: 0},
	}}
}

// PoolExhaustSpecSrc: connection-pool checkouts in flight must stay
// under the pool capacity; the inline assert fails the automaton on the
// transition that exceeds it. Parametric in the pool value.
const PoolExhaustSpecSrc = `
counter held bound 5;

start state S :
    | checkout(x) [held += 1] -> S
    | checkin(x) [held -= 1] -> S;

assert held <= 4;
`

// PoolExhaustProperty compiles PoolExhaustSpecSrc.
func PoolExhaustProperty() *spec.Property { return spec.MustCompile(PoolExhaustSpecSrc) }

// PoolExhaustEvents: pool.Checkout()/pool.Checkin() and the
// Borrow/Return naming convention, labelled by the receiver.
func PoolExhaustEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Checkout", ArgIndex: -1, Symbol: "checkout", LabelArg: 0},
		{Callee: "Checkin", ArgIndex: -1, Symbol: "checkin", LabelArg: 0},
		{Callee: "Borrow", ArgIndex: -1, Symbol: "checkout", LabelArg: 0},
		{Callee: "Return", ArgIndex: -1, Symbol: "checkin", LabelArg: 0},
	}}
}

// LockBalanceSpecSrc: every Lock must be balanced by an Unlock before
// the entry function returns, tracked relationally — unlocking more than
// was locked fails on the violating transition, and a positive lock −
// unlock difference at exit means the mutex is still held. Parametric in
// the mutex value. Complements doublelock (a typestate property over
// held/not-held) with a balance property that survives loops: repeated
// balanced lock/unlock rounds keep the difference at 0 exactly, no
// matter how many iterations, where a saturating counter would lose the
// value and may-report.
const LockBalanceSpecSrc = `
counter lk bound 8;
counter un bound 8;

relate lk - un in [0, 4];

start state S :
    | lock(x) [lk += 1] -> S
    | unlock(x) [un += 1] -> S;

assert lk - un >= 0;
assert lk - un == 0 at exit;
`

// LockBalanceProperty compiles LockBalanceSpecSrc.
func LockBalanceProperty() *spec.Property { return spec.MustCompile(LockBalanceSpecSrc) }

// LockBalanceEvents: mu.Lock()/mu.Unlock(), labelled by the receiver.
func LockBalanceEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Lock", ArgIndex: -1, Symbol: "lock", LabelArg: 0},
		{Callee: "Unlock", ArgIndex: -1, Symbol: "unlock", LabelArg: 0},
	}}
}

// PoolExchangeSpecSrc: sync.Pool-style Get/Put exchange — the number of
// Get results outstanding (taken − given back) must stay within the
// declared band. Inline-only: the automaton fails on the Get that takes
// the difference past 4, and Put-only traffic can never reach an accept
// state, so the skeleton layer prunes those labels before solving.
// Relational on purpose: total Get/Put counts are unbounded in any warm
// code path; only their difference is the property.
const PoolExchangeSpecSrc = `
counter tk bound 8;
counter gv bound 8;

relate tk - gv in [0, 4];

start state S :
    | get(x) [tk += 1] -> S
    | put(x) [gv += 1] -> S;

assert tk - gv <= 4;
`

// PoolExchangeProperty compiles PoolExchangeSpecSrc.
func PoolExchangeProperty() *spec.Property { return spec.MustCompile(PoolExchangeSpecSrc) }

// PoolExchangeEvents: pool.Get()/pool.Put(v) in the sync.Pool style,
// labelled by the receiver.
func PoolExchangeEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Get", ArgIndex: -1, Symbol: "get", LabelArg: 0},
		{Callee: "Put", ArgIndex: -1, Symbol: "put", LabelArg: 0},
	}}
}

// DepthBoundSpecSrc: explicit Enter/Leave nesting (tracers, indenters,
// reentrant sections) must not exceed the declared depth. Non-parametric
// on purpose: every enter/leave event in the entry's interprocedural
// CFG feeds one shared counter, so recursive call chains through
// Enter/Leave pairs are counted across functions.
const DepthBoundSpecSrc = `
counter depth bound 5;

start state S :
    | enter [depth += 1] -> S
    | leave [depth -= 1] -> S;

assert depth <= 4;
`

// DepthBoundProperty compiles DepthBoundSpecSrc.
func DepthBoundProperty() *spec.Property { return spec.MustCompile(DepthBoundSpecSrc) }

// DepthBoundEvents: Enter()/Leave() calls (free functions or methods).
func DepthBoundEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Enter", ArgIndex: -1, Symbol: "enter", LabelArg: -1},
		{Callee: "Leave", ArgIndex: -1, Symbol: "leave", LabelArg: -1},
	}}
}

// WaitGroupCountSpecSrc: the counting upgrade of the waitgroup checker.
// Besides the regular Add-after-Wait misuse it tracks the counter value:
// wg.Add(1) adds one, wg.Add(n) for any other argument is a wildcard
// update `[c += *]` — an increase of unknown magnitude that saturates
// the tracker honestly instead of pretending the delta was 2 — wg.Done()
// subtracts one, and driving the counter negative is the documented
// "sync: negative WaitGroup counter" panic, reported via the inline
// non-negativity assert.
//
// The bound is 3, not higher, deliberately: this checker's `Add` rule
// is a catch-all over method names, so it matches every `.Add(` in the
// program (metrics counters, containers, big.Int arithmetic). The
// skeleton layer prunes labels whose events can never reach an accept
// state (see pdm.CheckObs), which keeps those spurious matches off the
// solver's hot path, but the monoid size still scales with the bound
// (bound 3 → 59 functions, bound 4 → 112) and feeds the committed CI
// ceilings. Outstanding totals ≥ 3 are rare enough that the saturation
// may-verdict is an acceptable trade.
const WaitGroupCountSpecSrc = `
counter c bound 3;

start state Counting :
    | add_1(x) [c += 1] -> Counting
    | add_many(x) [c += *] -> Counting
    | done(x) [c -= 1] -> Counting
    | wait(x) -> Waited;

state Waited :
    | wait(x) -> Waited
    | done(x) [c -= 1] -> Waited
    | add_1(x) [c += 1] -> Error
    | add_many(x) [c += *] -> Error;

accept state Error;

assert c >= 0;
`

// WaitGroupCountProperty compiles WaitGroupCountSpecSrc.
func WaitGroupCountProperty() *spec.Property { return spec.MustCompile(WaitGroupCountSpecSrc) }

// WaitGroupCountEvents: wg.Add(n) dispatches on the literal delta
// (receiver is argument 0, n is argument 1); non-literal or large deltas
// fall through to add_many, a wildcard increase that saturates the
// counter. wg.Done() and wg.Wait() are unit events.
func WaitGroupCountEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Add", ArgIndex: 1, Equals: "1", Symbol: "add_1", LabelArg: 0},
		{Callee: "Add", ArgIndex: -1, Symbol: "add_many", LabelArg: 0},
		{Callee: "Done", ArgIndex: -1, Symbol: "done", LabelArg: 0},
		{Callee: "Wait", ArgIndex: -1, Symbol: "wait", LabelArg: 0},
	}}
}
