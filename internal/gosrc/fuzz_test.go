package gosrc

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rasc/internal/synth"
)

// FuzzLower checks that the whole front end — parse, translate, lower to
// IR with its CFG, call graph and summaries — is total over pairs of Go
// source files: it returns a program or an error, never panics. Seeds
// are the analysis test corpus and a small synthetic package.
func FuzzLower(f *testing.F) {
	var seeds []string
	paths, err := filepath.Glob("../analysis/testdata/src/*.go")
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	for _, g := range synth.GenerateGo(synth.GoConfig{Seed: 1, Files: 3, FuncsPerFile: 3, StmtsPerFn: 6, UnsafePerFile: 1, Racy: true}) {
		seeds = append(seeds, g.Src)
	}
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		prog, err := Lower([]File{{Name: "a.go", Src: a}, {Name: "b.go", Src: b}})
		if err != nil {
			if prog != nil {
				t.Fatalf("Lower returned both a program and an error: %v", err)
			}
			return
		}
		if prog == nil {
			t.Fatal("Lower returned neither a program nor an error")
		}
		for _, fn := range prog.Funcs {
			if prog.ByName[fn.Name] != fn {
				t.Fatalf("function %q does not resolve to itself", fn.Name)
			}
		}
	})
}
