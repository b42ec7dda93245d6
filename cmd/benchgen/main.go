// Command benchgen emits synthetic workloads: mini-C programs (the
// Table 1 substitution programs and taint workloads) and multi-file Go
// packages with injected bugs. It also runs the solver-only
// microbenchmarks behind BENCH_core.json. End-to-end analysis timings
// come from the ledger (bash ledger/run.sh), not from here.
//
// Usage:
//
//	benchgen [-kind priv|taint|go] [-seed N] [-functions N] [-stmts N]
//	         [-unsafe N] [-full]
//	benchgen -kind go -gofiles 8 -outdir dir   # multi-file Go package
//	benchgen -row "Sendmail 8.12.8"      # a Table 1 package's program
//	benchgen -list                        # list Table 1 rows
//	benchgen -core-json BENCH_core.json [-iters N]   # solver microbenchmarks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rasc/internal/core"
	"rasc/internal/corebench"
	"rasc/internal/synth"
)

func main() {
	kind := flag.String("kind", "priv", "workload kind: priv or taint")
	seed := flag.Int64("seed", 1, "random seed")
	functions := flag.Int("functions", 10, "number of functions")
	stmts := flag.Int("stmts", 30, "statements per function")
	unsafe := flag.Int("unsafe", 1, "injected violations")
	safe := flag.Int("safe", 3, "injected safe patterns")
	full := flag.Bool("full", false, "use the full (11-state) property vocabulary")
	row := flag.String("row", "", "generate a named Table 1 package program")
	gofiles := flag.Int("gofiles", 4, "number of Go files (-kind go)")
	outdir := flag.String("outdir", "", "write -kind go files into this directory")
	list := flag.Bool("list", false, "list Table 1 rows")
	coreJSON := flag.String("core-json", "", "run the solver-only microbenchmark suite, write timing JSON to this path")
	iters := flag.Int("iters", 5, "timed iterations per core microbenchmark (-core-json)")
	flag.Parse()

	if *coreJSON != "" {
		if err := runCoreBench(*coreJSON, *iters); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range synth.Table1() {
			fmt.Printf("%-18s %6d lines, %d program(s)\n", r.Name, r.Lines, r.Programs)
		}
		return
	}
	if *row != "" {
		for _, r := range synth.Table1() {
			if r.Name == *row {
				fmt.Print(synth.Generate(r.Config))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchgen: unknown row %q (try -list)\n", *row)
		os.Exit(1)
	}
	switch *kind {
	case "priv":
		fmt.Print(synth.Generate(synth.Config{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, BranchProb: 0.15, LoopProb: 0.06,
			SafePatterns: *safe, UnsafePatterns: *unsafe, FullProperty: *full,
		}))
	case "taint":
		fmt.Print(synth.GenerateTaint(synth.TaintConfig{
			Seed: *seed, Functions: *functions, StmtsPerFn: *stmts,
			CallProb: 0.12, Tainted: *unsafe, Cleaned: *safe,
		}))
	case "go":
		files := synth.GenerateGo(synth.GoConfig{
			Seed:          *seed,
			Files:         *gofiles,
			FuncsPerFile:  *functions,
			StmtsPerFn:    *stmts,
			UnsafePerFile: *unsafe,
		})
		if *outdir == "" {
			for _, f := range files {
				fmt.Printf("// ---- %s ----\n%s", f.Name, f.Src)
			}
			return
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
			os.Exit(1)
		}
		for _, f := range files {
			path := filepath.Join(*outdir, f.Name)
			if err := os.WriteFile(path, []byte(f.Src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchgen:", err)
				os.Exit(1)
			}
			fmt.Println(path)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgen: unknown kind", *kind)
		os.Exit(2)
	}
}

// coreBenchResult is the schema of one -core-json suite entry. Times
// are per measured operation (best and mean of -iters runs after one
// warm-up); the solver stats identify the workload so that regressions
// in derived-fact counts are visible next to regressions in time.
type coreBenchResult struct {
	Name     string  `json:"name"`
	Desc     string  `json:"desc"`
	Iters    int     `json:"iters"`
	BestMS   float64 `json:"best_ms"`
	MeanMS   float64 `json:"mean_ms"`
	Vars     int     `json:"vars"`
	Edges    int     `json:"edges"`
	Reach    int     `json:"reach"`
	ConsN    int     `json:"cons_nodes"`
	Collapse int     `json:"collapsed"`
}

func runCoreBench(path string, iters int) error {
	if iters < 1 {
		iters = 1
	}
	var out struct {
		Iters     int               `json:"iters"`
		Scenarios []coreBenchResult `json:"scenarios"`
	}
	out.Iters = iters
	for _, sc := range corebench.Scenarios() {
		op := sc.Setup(core.Options{})
		st := op() // warm-up, and the workload fingerprint
		r := coreBenchResult{
			Name: sc.Name, Desc: sc.Desc, Iters: iters,
			Vars: st.Vars, Edges: st.Edges, Reach: st.Reach,
			ConsN: st.ConsNodes, Collapse: st.Collapsed,
		}
		var total float64
		for i := 0; i < iters; i++ {
			start := time.Now()
			op()
			ms := float64(time.Since(start).Microseconds()) / 1000
			total += ms
			if i == 0 || ms < r.BestMS {
				r.BestMS = ms
			}
		}
		r.MeanMS = total / float64(iters)
		out.Scenarios = append(out.Scenarios, r)
		fmt.Printf("%-40s best %8.3f ms  mean %8.3f ms  (%d reach, %d edges)\n",
			sc.Name, r.BestMS, r.MeanMS, r.Reach, r.Edges)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
