// Package analysis is the package-level static-analysis driver: it loads
// a directory tree of Go files, translates them into the toolkit's
// intermediate form once, and runs a registry of typestate checkers —
// each a regularly-annotated-set-constraint property (§6) — concurrently
// over the program's entry functions. Diagnostics are first-class values
// with stable positions, //rasc:ignore suppression, and text, JSON and
// SARIF renderers so the output can feed CI annotation tooling.
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rasc/internal/minic"
	"rasc/internal/spec"
)

// Mode selects how a checker turns solver results into diagnostics.
type Mode int

const (
	// ModeViolations reports each property violation (transition into an
	// accepting error state) with its witness trace.
	ModeViolations Mode = iota
	// ModeLeakAtExit reports each parameter label whose automaton copy is
	// accepting when the entry function exits (resource-leak shape, like
	// the open-descriptor query of §6.4.1).
	ModeLeakAtExit
)

// Severity ranks diagnostics.
type Severity int

// Severities, ordered from most to least severe.
const (
	SeverityError Severity = iota
	SeverityWarning
	SeverityNote
)

// String returns the SARIF-compatible level name.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	default:
		return "note"
	}
}

// MarshalJSON renders the severity as its level name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a level name back into a Severity.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = SeverityError
	case `"warning"`:
		*s = SeverityWarning
	case `"note"`:
		*s = SeverityNote
	default:
		return fmt.Errorf("analysis: unknown severity %s", b)
	}
	return nil
}

// Checker is one registered API-usage property. The property and event
// map are built lazily, once, and shared across concurrent jobs: compiled
// properties (DFA + transition monoid) are read-only after construction.
//
// A checker is either property-based (NewProperty + NewEvents, solved
// with the RASC pushdown engine) or model-based (Run set, inspecting the
// package's concurrency model directly — the race and lockorder
// checkers). Exactly one of the two forms must be provided.
type Checker struct {
	// Name is the registry key ("doublelock").
	Name string
	// Doc is a one-line description, shown by -list and in SARIF rules.
	Doc string
	// Severity of the produced diagnostics.
	Severity Severity
	// Mode selects the result query.
	Mode Mode
	// NewProperty compiles the property specification.
	NewProperty func() *spec.Property
	// NewEvents builds the call-to-alphabet event map.
	NewEvents func() *minic.EventMap
	// Run, when set, replaces the property solve: the checker computes
	// its diagnostics from the package directly. Run must be safe for
	// concurrent calls with distinct entries.
	Run func(pkg *Package, c *Checker, entry string) []Diagnostic
	// Message is the diagnostic text; a "%s" verb, if present, receives
	// the parameter label (the offending mutex, file, rows value, ...).
	Message string
	// Spec is the property specification source the checker compiles
	// (property-based checkers). It feeds the checker's content
	// fingerprint, so editing a spec invalidates cached results.
	Spec string
	// Version is a manual content-version tag for checkers whose
	// semantics live in code the fingerprint cannot see — bump it when a
	// Run checker's algorithm or a property's event mapping changes
	// behavior without changing Spec.
	Version string

	once   sync.Once
	prop   *spec.Property
	events *minic.EventMap

	// fp memoizes fingerprint for one registry generation: it keys
	// every job's cache and memo records, and rendering the event rules
	// per job is measurable.
	fp atomic.Pointer[fingerprintMemo]
}

type fingerprintMemo struct {
	gen int
	s   string
}

func (c *Checker) compiled() (*spec.Property, *minic.EventMap) {
	c.once.Do(func() {
		c.prop = c.NewProperty()
		c.events = c.NewEvents()
	})
	return c.prop, c.events
}

// Domain describes the checker's annotation domain for display: "model"
// for model-based checkers (Run set), otherwise the compiled property's
// domain — "regular" for plain finite-state specs, "counting(c≤4)" style
// for bounded-counter ones.
func (c *Checker) Domain() string {
	if c.Run != nil {
		return "model"
	}
	prop, _ := c.compiled()
	return prop.Domain()
}

// message renders the diagnostic text for a parameter label.
func (c *Checker) message(label string) string {
	if label == "" {
		label = "?"
	}
	if containsVerb(c.Message) {
		return fmt.Sprintf(c.Message, label)
	}
	return c.Message
}

func containsVerb(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 's' {
			return true
		}
	}
	return false
}

var (
	regMu    sync.RWMutex
	regGen   int
	registry = map[string]*Checker{}
)

// Register adds a checker to the global registry. Registering a
// duplicate name panics: checker names are part of the suppression and
// CLI surface.
func Register(c *Checker) {
	regMu.Lock()
	defer regMu.Unlock()
	propertyBased := c.NewProperty != nil && c.NewEvents != nil
	if c.Name == "" || propertyBased == (c.Run != nil) {
		panic("analysis: Register: checker needs a name and exactly one of Run or NewProperty+NewEvents")
	}
	if _, dup := registry[c.Name]; dup {
		panic("analysis: Register: duplicate checker " + c.Name)
	}
	registry[c.Name] = c
	regGen++
}

// generation identifies the registry state; it changes whenever a
// checker registers, invalidating skeletons whose deferred-statement set
// was computed against the smaller registry.
func generation() int {
	regMu.RLock()
	defer regMu.RUnlock()
	return regGen
}

// fingerprint renders the checker's analysis-relevant content: identity,
// diagnostic shape, declared spec/version, and — for property checkers —
// the compiled event rules, whose plain-struct rendering is stable.
func (c *Checker) fingerprint() string {
	gen := generation()
	if m := c.fp.Load(); m != nil && m.gen == gen {
		return m.s
	}
	s := c.renderFingerprint()
	c.fp.Store(&fingerprintMemo{gen: gen, s: s})
	return s
}

func (c *Checker) renderFingerprint() string {
	s := fmt.Sprintf("checker %s\ndoc %s\nsev %d mode %d\nmsg %s\nspec %s\nversion %s\n",
		c.Name, c.Doc, c.Severity, c.Mode, c.Message, c.Spec, c.Version)
	if c.NewProperty != nil && c.NewEvents != nil {
		_, events := c.compiled()
		for _, r := range events.Rules {
			s += fmt.Sprintf("rule %+v\n", r)
		}
	}
	return s
}

// registryFingerprint hashes the full registry's content. The whole
// registry matters to every cached result — the shared skeleton's
// deferred-statement set is computed from the union of all checkers'
// event callees — so persistent cache keys include this fingerprint the
// way in-process skeleton caching includes generation().
func registryFingerprint() string {
	h := sha256.New()
	for _, c := range All() {
		fmt.Fprintf(h, "%s\n", c.fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// eventCallees returns the union of callee names appearing in any
// registered property checker's event rules — a conservative
// over-approximation of "some checker might treat a call to this
// function as an event".
func eventCallees() map[string]bool {
	set := map[string]bool{}
	for _, c := range All() {
		if c.NewProperty == nil || c.NewEvents == nil {
			continue
		}
		_, events := c.compiled()
		for _, r := range events.Rules {
			set[r.Callee] = true
		}
	}
	return set
}

// Get looks a checker up by name.
func Get(name string) (*Checker, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// All returns every registered checker, sorted by name.
func All() []*Checker {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Checker, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolve turns a comma-separated checker list into checkers; "" or
// "all" yields the full registry.
func Resolve(names string) ([]*Checker, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	var out []*Checker
	seen := map[string]bool{}
	start := 0
	for i := 0; i <= len(names); i++ {
		if i < len(names) && names[i] != ',' {
			continue
		}
		name := names[start:i]
		start = i + 1
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		c, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown checker %q (have %s)", name, knownNames())
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty checker list")
	}
	return out, nil
}

func knownNames() string {
	all := All()
	s := ""
	for i, c := range all {
		if i > 0 {
			s += ", "
		}
		s += c.Name
	}
	return s
}
