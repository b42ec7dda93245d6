package subst

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rasc/internal/dfa"
	"rasc/internal/monoid"
	"rasc/internal/spec"
)

const fileSrc = `
start state Closed :
    | open(x) -> Opened;

accept state Opened :
    | close(x) -> Closed;
`

func fileProperty(t testing.TB) *spec.Property {
	t.Helper()
	p, err := spec.Compile(fileSrc, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// §6.4.1 (Figures 6 and 7): after open(fd1); open(fd2); close(fd1), the
// composed environment maps fd1 to closed and fd2 to opened.
func TestFileStateExampleComposition(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)

	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")

	phi1 := tab.Instantiate("x", "fd1", fOpen)
	phi2 := tab.Instantiate("x", "fd2", fOpen)
	phi3 := tab.Instantiate("x", "fd1", fClose)

	all := tab.Then(tab.Then(phi1, phi2), phi3)
	env := tab.Env(all)

	// f1 = "opened" transition, f2 = open-then-close (identity on Closed).
	f1 := fOpen
	f2 := mon.Then(fOpen, fClose)

	got1 := env.Lookup([]Binding{{"x", "fd1"}})
	got2 := env.Lookup([]Binding{{"x", "fd2"}})
	if got1 != f2 {
		t.Errorf("fd1 ↦ %s, want %s (opened then closed)", mon.String(got1), mon.String(f2))
	}
	if got2 != f1 {
		t.Errorf("fd2 ↦ %s, want %s (still open)", mon.String(got2), mon.String(f1))
	}
	if env.Residual != mon.Identity() {
		t.Errorf("residual = %s, want identity", mon.String(env.Residual))
	}

	// fd2 remains open at the end of the program but fd1 does not: exactly
	// the distinction the paper's analysis must draw.
	viol := tab.AcceptingEntries(all)
	if len(viol) != 1 {
		t.Fatalf("got %d accepting entries, want 1: %v", len(viol), viol)
	}
	if len(viol[0].Bindings) != 1 || viol[0].Bindings[0] != (Binding{"x", "fd2"}) {
		t.Errorf("accepting instance = %v, want (x:fd2)", viol[0].Bindings)
	}
}

func TestCompositionAssociative(t *testing.T) {
	p := fileProperty(t)
	tab := NewTable(p.Mon)
	fOpen, _ := p.Mon.SymbolFuncByName("open")
	fClose, _ := p.Mon.SymbolFuncByName("close")

	ids := []ID{
		tab.Instantiate("x", "a", fOpen),
		tab.Instantiate("x", "b", fOpen),
		tab.Instantiate("x", "a", fClose),
		tab.FromFunc(fClose),
		tab.Identity(),
	}
	for _, a := range ids {
		for _, b := range ids {
			for _, c := range ids {
				l := tab.Then(tab.Then(a, b), c)
				r := tab.Then(a, tab.Then(b, c))
				if l != r {
					t.Fatalf("associativity fails: (%s·%s)·%s", tab.Env(a), tab.Env(b), tab.Env(c))
				}
			}
		}
	}
}

func TestIdentityEnv(t *testing.T) {
	p := fileProperty(t)
	tab := NewTable(p.Mon)
	fOpen, _ := p.Mon.SymbolFuncByName("open")
	phi := tab.Instantiate("x", "fd1", fOpen)
	if tab.Then(tab.Identity(), phi) != phi || tab.Then(phi, tab.Identity()) != phi {
		t.Error("identity environment is not an identity for Then")
	}
}

// Non-parametric environments must degrade to plain function composition.
func TestDegradeToFunctions(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")

	a := tab.FromFunc(fOpen)
	b := tab.FromFunc(fClose)
	ab := tab.Then(a, b)
	if tab.Env(ab).Residual != mon.Then(fOpen, fClose) {
		t.Error("residual composition does not match monoid composition")
	}
	if len(tab.Env(ab).Entries) != 0 {
		t.Error("composing empty environments should stay empty")
	}
}

// The residual must be incorporated into future instantiations: a
// non-parametric transition followed by a fresh instantiation sees the
// residual through Lookup's fall-through.
func TestResidualIncorporated(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)
	fOpen, _ := mon.SymbolFuncByName("open")

	r := tab.FromFunc(fOpen) // a (hypothetical) non-parametric open
	phi := tab.Instantiate("x", "fd9", fOpen)
	comp := tab.Env(tab.Then(r, phi))
	// fd9's entry must include the earlier residual: open then open = open.
	got := comp.Lookup([]Binding{{"x", "fd9"}})
	if got != mon.Then(fOpen, fOpen) {
		t.Errorf("fd9 ↦ %s, want open·open", mon.String(got))
	}
	// And a *different* fresh instance falls through to the residual open.
	if comp.Lookup([]Binding{{"x", "other"}}) != fOpen {
		t.Error("fresh instance should see the residual")
	}
}

func TestCompatibility(t *testing.T) {
	x1 := []Binding{{"x", "i"}}
	x2 := []Binding{{"x", "k"}}
	xy := []Binding{{"x", "i"}, {"y", "j"}}
	if Compatible(x1, x2) {
		t.Error("conflicting labels must be incompatible")
	}
	if !Compatible(xy, x1) {
		t.Error("(x:i,y:j) ≼ (x:i) should hold")
	}
	if Compatible(x1, xy) {
		t.Error("i must have at least as many bindings as j")
	}
	if !Compatible(x1, nil) {
		t.Error("everything is compatible with the residual (empty entry)")
	}
}

// §6.4.2 multiple parameters: entries can bind several parameters; merging
// expands to the union.
func TestMultiParamMerge(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")

	a := tab.InstantiateMulti([]Binding{{"x", "i"}, {"y", "j"}}, fOpen)
	b := tab.Instantiate("x", "i", fClose)
	env := tab.Env(tab.Then(a, b))

	// The merged entry (x:i, y:j) must see open then close.
	got := env.Lookup([]Binding{{"x", "i"}, {"y", "j"}})
	if got != mon.Then(fOpen, fClose) {
		t.Errorf("(x:i,y:j) ↦ %s, want open·close", mon.String(got))
	}
	// A query for (x:k) conflicts with both entries: residual.
	if env.Lookup([]Binding{{"x", "k"}}) != mon.Identity() {
		t.Error("(x:k) should fall through to the residual")
	}
}

func TestInterningDedup(t *testing.T) {
	p := fileProperty(t)
	tab := NewTable(p.Mon)
	fOpen, _ := p.Mon.SymbolFuncByName("open")
	a := tab.Instantiate("x", "fd1", fOpen)
	b := tab.Instantiate("x", "fd1", fOpen)
	if a != b {
		t.Error("identical environments must intern to the same ID")
	}
}

func TestEnvString(t *testing.T) {
	p := fileProperty(t)
	tab := NewTable(p.Mon)
	fOpen, _ := p.Mon.SymbolFuncByName("open")
	id := tab.Instantiate("x", "fd1", fOpen)
	s := tab.Env(id).String()
	if s == "" || s == "[]" {
		t.Errorf("bad rendering %q", s)
	}
}

// Property test: composing random sequences of parametric events tracks
// each label exactly as running that label's subsequence through the
// monoid (the "lazily constructed product automaton" semantics of §6.4).
func TestQuickPerLabelProjection(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")
	labels := []string{"fd1", "fd2", "fd3"}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable(mon)
		n := 1 + r.Intn(10)
		acc := tab.Identity()
		perLabel := map[string]monoid.FuncID{}
		for _, l := range labels {
			perLabel[l] = mon.Identity()
		}
		for i := 0; i < n; i++ {
			lab := labels[r.Intn(len(labels))]
			var f monoid.FuncID
			if r.Intn(2) == 0 {
				f = fOpen
			} else {
				f = fClose
			}
			acc = tab.Then(acc, tab.Instantiate("x", lab, f))
			perLabel[lab] = mon.Then(perLabel[lab], f)
		}
		env := tab.Env(acc)
		for _, l := range labels {
			want := perLabel[l]
			if want == mon.Identity() {
				continue // label never mentioned: falls to residual
			}
			if env.Lookup([]Binding{{"x", l}}) != want {
				return false
			}
		}
		return env.Residual == mon.Identity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: mixing non-parametric transitions applies them to every label
// and to the residual.
func TestQuickResidualAppliesToAll(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable(mon)
		acc := tab.Identity()
		want := map[string]monoid.FuncID{"a": mon.Identity(), "b": mon.Identity()}
		res := mon.Identity()
		for i := 0; i < 8; i++ {
			var f monoid.FuncID
			if r.Intn(2) == 0 {
				f = fOpen
			} else {
				f = fClose
			}
			switch r.Intn(3) {
			case 0: // parametric on a
				acc = tab.Then(acc, tab.Instantiate("x", "a", f))
				want["a"] = mon.Then(want["a"], f)
			case 1: // parametric on b
				acc = tab.Then(acc, tab.Instantiate("x", "b", f))
				want["b"] = mon.Then(want["b"], f)
			default: // non-parametric: hits everything
				acc = tab.Then(acc, tab.FromFunc(f))
				want["a"] = mon.Then(want["a"], f)
				want["b"] = mon.Then(want["b"], f)
				res = mon.Then(res, f)
			}
		}
		env := tab.Env(acc)
		for l, w := range want {
			got := env.Lookup([]Binding{{"x", l}})
			if got != w {
				return false
			}
		}
		return env.Residual == res
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Sanity on a different automaton: the 1-bit gen/kill machine used
// parametrically behaves per label.
func TestParametricGenKill(t *testing.T) {
	alpha := dfa.NewAlphabet("g", "k")
	d := dfa.NewDFA(alpha, 2, 0)
	g, _ := alpha.Lookup("g")
	k, _ := alpha.Lookup("k")
	d.SetTransition(0, g, 1)
	d.SetTransition(1, g, 1)
	d.SetTransition(0, k, 0)
	d.SetTransition(1, k, 0)
	d.SetAccept(1)
	mon, err := monoid.Build(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(mon)
	fg, _ := mon.SymbolFuncByName("g")
	fk, _ := mon.SymbolFuncByName("k")

	// gen(v1); kill(v2): v1 is live, v2 dead, residual identity.
	acc := tab.Then(tab.Instantiate("v", "v1", fg), tab.Instantiate("v", "v2", fk))
	env := tab.Env(acc)
	if env.Lookup([]Binding{{"v", "v1"}}) != fg {
		t.Error("v1 should be generated")
	}
	if env.Lookup([]Binding{{"v", "v2"}}) != fk {
		t.Error("v2 should be killed")
	}
}

// Associativity with multiple parameters and entry merging (§6.4.2),
// randomized: any bracketing of a random event sequence composes to the
// same environment.
func TestQuickMultiParamAssociativity(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable(mon)
		mk := func() ID {
			f := fOpen
			if r.Intn(2) == 0 {
				f = fClose
			}
			switch r.Intn(4) {
			case 0:
				return tab.Instantiate("x", string(rune('a'+r.Intn(3))), f)
			case 1:
				return tab.InstantiateMulti([]Binding{
					{"x", string(rune('a' + r.Intn(3)))},
					{"y", string(rune('p' + r.Intn(2)))},
				}, f)
			case 2:
				return tab.FromFunc(f)
			default:
				return tab.Identity()
			}
		}
		n := 3 + r.Intn(4)
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = mk()
		}
		// Left fold vs right fold.
		left := ids[0]
		for _, id := range ids[1:] {
			left = tab.Then(left, id)
		}
		right := ids[n-1]
		for i := n - 2; i >= 0; i-- {
			right = tab.Then(ids[i], right)
		}
		return left == right
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// internSequence runs a fixed sequence of Instantiate/Then/FromFunc calls
// over the file property and returns the ID of each result, in order.
func internSequence(t *testing.T) []ID {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")
	var ids []ID
	rec := func(id ID) ID {
		ids = append(ids, id)
		return id
	}
	o1 := rec(tab.Instantiate("x", "fd1", fOpen))
	o2 := rec(tab.Instantiate("x", "fd2", fOpen))
	o3 := rec(tab.Instantiate("x", "a\x01b", fOpen))
	c1 := rec(tab.Instantiate("x", "fd1", fClose))
	c2 := rec(tab.Instantiate("x", "fd2", fClose))
	g := rec(tab.FromFunc(fOpen))
	o12 := rec(tab.Then(o1, o2))
	o21 := rec(tab.Then(o2, o1))
	o123 := rec(tab.Then(o12, o3))
	o312 := rec(tab.Then(o3, o12))
	rec(tab.Then(o123, c1))
	rec(tab.Then(o312, c2))
	rec(tab.Then(tab.Then(o21, c2), c1))
	rec(tab.Then(g, o12))
	rec(tab.Then(o12, g))
	rec(tab.InstantiateMulti([]Binding{{"y", "q"}, {"x", "p"}}, fOpen))
	rec(tab.Then(tab.InstantiateMulti([]Binding{{"x", "fd1"}, {"y", "q"}}, fClose), o123))
	rec(ID(tab.Size()))
	return ids
}

// The IDs a fixed call sequence interns are pinned: entry-order
// canonicalization decides which environments are equal, and IDs are
// handed out in first-intern order, so a change to either shows here.
func TestInternIDsPinned(t *testing.T) {
	got := internSequence(t)
	want := []ID{1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9, 10, 12, 13, 13, 14, 16, 17}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interned IDs = %v, want %v", got, want)
	}
}

// Interning does not depend on the order of an environment's entries.
func TestInternEntryOrderIndependent(t *testing.T) {
	p := fileProperty(t)
	mon := p.Mon
	tab := NewTable(mon)
	fOpen, _ := mon.SymbolFuncByName("open")
	fClose, _ := mon.SymbolFuncByName("close")
	entries := []Entry{
		{Bindings: []Binding{{"x", "fd2"}}, F: fOpen},
		{Bindings: []Binding{{"x", "fd1"}, {"y", "q"}}, F: fClose},
		{Bindings: []Binding{{"x", "fd1"}}, F: fClose},
		{Bindings: []Binding{{"y", "q"}}, F: fOpen},
	}
	first := tab.intern(&Env{Entries: append([]Entry{}, entries...), Residual: fOpen})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		perm := append([]Entry{}, entries...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if id := tab.intern(&Env{Entries: perm, Residual: fOpen}); id != first {
			t.Fatalf("permutation %v interned as %d, want %d", perm, id, first)
		}
	}
	env := tab.Env(first)
	for i := 1; i < len(env.Entries); i++ {
		if bindingsKey(env.Entries[i-1].Bindings) >= bindingsKey(env.Entries[i].Bindings) {
			t.Fatalf("entries not in canonical order: %v", env)
		}
	}
	if other := tab.intern(&Env{Entries: append([]Entry{}, entries[:3]...), Residual: fOpen}); other == first {
		t.Fatalf("a strict subset of the entries interned as the same environment")
	}
}
