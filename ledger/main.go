// Command ledger is the repository's benchmark: it runs one of three
// seeded workloads against the Go checker as users run it and prints
// the end-to-end metrics (tracing off) or a per-layer breakdown
// (tracing on). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the root of the repository (see ledger/README.md):
//
//	bash ledger/run.sh --workload cold-real|edit-stream|commit-rerun \
//	    --seed N --seconds S --trace 0|1
//	bash ledger/run.sh --workload W --seed N --check-exact
//	bash ledger/run.sh --workload W --write-oracle FILE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rasc/internal/analysis"
)

// A run sets its workload up at least setupReps times and for at least
// setupMin in total; setup_s is the median set-up time.
const (
	setupReps = 5
	setupMin  = 500 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: cold-real, edit-stream or commit-rerun")
	seed := flag.Int64("seed", 1, "workload seed (edit stream and commit edits)")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	checkExact := flag.Bool("check-exact", false, "run the counted traced prefix twice and compare every work counter")
	writeOracle := flag.String("write-oracle", "", "write the workload's findings to this file (for review) and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ledger: need --workload cold-real|edit-stream|commit-rerun, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// The benchmark runs from the root of the repository; the worker
	// pool has one worker per CPU, as gocheck's and gocheckd's default.
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("ledger-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	e := &env{root: root, work: work, seed: *seed, parallel: runtime.NumCPU()}

	switch {
	case *writeOracle != "":
		err = writeWorkloadOracle(w, e, *writeOracle)
	case *checkExact:
		err = runCheckExact(w, e)
	default:
		err = runMeasure(w, e, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	return 1
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opRecord is one finished operation.
type opRecord struct {
	warmup bool
	traced bool
	ms     float64
	failed bool
	layers map[string]float64
}

// warmupOps is how many operations a run makes before it starts
// measuring. Their findings are checked, their times and counters are
// not used: the first operation of a process grows the heap from
// nothing, which the operations after it do not.
const warmupOps = 1

// runOps runs the warm-up operations, calls measuring (nil OK), then
// runs operations until the time is up, and at least minOps of them.
// Traced runs alternate traced (even i) and untraced operations.
func runOps(s session, exp *expected, d time.Duration, minOps int, traced bool, measuring func()) []opRecord {
	var ops []opRecord
	var start time.Time
	for i := -warmupOps; i < minOps || time.Since(start) < d; i++ {
		if i == 0 {
			if measuring != nil {
				measuring()
			}
			start = time.Now()
		}
		rec := opRecord{warmup: i < 0, traced: traced && i >= 0 && i%2 == 0, layers: map[string]float64{}}
		rep, wall, err := s.op(i, rec.traced, rec.layers)
		rec.ms = float64(wall.Nanoseconds()) / 1e6
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "ledger: operation %d: %v\n", i, err)
			rec.failed = true
		default:
			if msg := exp.mismatch(rep); msg != "" {
				fmt.Fprintf(os.Stderr, "ledger: operation %d: findings differ from the oracle: %s\n", i, msg)
				rec.failed = true
			}
		}
		ops = append(ops, rec)
	}
	return ops
}

// setupAll sets the workload up at least reps times and for at least
// total time in all, keeps the last session and returns every set-up
// time.
func setupAll(w *workload, e *env, reps int, total time.Duration) (session, []float64, error) {
	var times []float64
	var s session
	start := time.Now()
	for r := 0; r < reps || time.Since(start) < total; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(e, r); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

func runMeasure(w *workload, e *env, d time.Duration, traced bool) error {
	exp, err := loadExpected(filepath.Join(e.root, "ledger", "oracle", w.oracle))
	if err != nil {
		return err
	}
	reps, total := setupReps, setupMin
	if traced {
		reps, total = 1, 0
	}
	s, setupTimes, err := setupAll(w, e, reps, total)
	if err != nil {
		return err
	}
	minOps := 1
	if traced {
		minOps = 2 * w.counted
	}
	var rssReset bool
	ops := runOps(s, exp, d, minOps, traced, func() { rssReset = resetPeakRSS() })
	peak := peakRSSMB()
	if err := s.close(); err != nil {
		return err
	}

	res := result{Attempted: len(ops), Metrics: map[string]value{}}
	setupS := median(setupTimes)
	for _, op := range ops {
		if op.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("ledger workload=%s seed=%d parallel=%d trace=%v\n", w.name, e.seed, e.parallel, traced)
	if traced {
		layerMetrics(w, ops, res.Metrics)
	} else {
		var ms []float64
		for _, op := range ops {
			if !op.warmup {
				ms = append(ms, op.ms)
			}
		}
		p50, tail := median(ms), quantile(ms, w.tail)
		beyond := int(float64(len(ms)) * (1 - w.tail))
		res.Metrics["op_p50_ms"] = value{p50, "ms"}
		res.Metrics["op_tail_ms"] = value{tail, "ms"}
		res.Metrics["setup_s"] = value{setupS, "s"}
		res.Metrics["peak_rss_mb"] = value{peak, "MB"}
		if w.name == "cold-real" {
			fmt.Printf("  %-14s %12.3f s   (median, n=%d)\n", w.opName, p50/1000, len(ms))
			fmt.Printf("  %-14s %12.3f s   (n=%d)\n", w.tailName, tail/1000, len(ms))
		} else {
			fmt.Printf("  %-14s %12.3f ms  (median, n=%d)\n", w.opName, p50, len(ms))
			fmt.Printf("  %-14s %12.3f ms  (n=%d, %d beyond)\n", w.tailName, tail, len(ms), beyond)
		}
		fmt.Printf("  %-14s %12.3f s   (median of %d set-ups)\n", "setup_s", setupS, len(setupTimes))
		note := ""
		if !rssReset {
			note = ", includes set-up: the kernel refused a reset"
		}
		fmt.Printf("  %-14s %12.1f MB  (measured operations%s)\n", "peak_rss_mb", peak, note)
		fmt.Printf("  %-14s %12.4f     (%d failed of %d)\n", "error_rate", float64(res.Failed)/float64(len(ops)), res.Failed, len(ops))
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerMetrics folds the traced operations into the per-layer metrics:
// times are the median per traced operation, counters the mean over the
// first w.counted traced operations (the counted prefix, identical for
// one seed), and the tracing overhead compares traced with untraced
// operation medians.
func layerMetrics(w *workload, ops []opRecord, out map[string]value) {
	counted := countedLayers(w, ops)
	perOp := map[string][]float64{}
	var tracedMS, plainMS []float64
	for _, op := range ops {
		if op.warmup {
			continue
		}
		if !op.traced {
			plainMS = append(plainMS, op.ms)
			continue
		}
		tracedMS = append(tracedMS, op.ms)
		for _, m := range perLayer {
			if m.unit == "ms" {
				perOp[m.name] = append(perOp[m.name], op.layers[m.name])
			}
		}
	}
	for _, m := range perLayer {
		var v float64
		switch {
		case m.unit == "ms":
			v = median(perOp[m.name])
		case m.name == "obs.trace_overhead_pct":
			v = (median(tracedMS) - median(plainMS)) / median(plainMS) * 100
		case m.name == "obs.traced_ops":
			v = float64(len(tracedMS))
		case m.name == "obs.untraced_ops":
			v = float64(len(plainMS))
		default:
			v = counted[m.name]
		}
		out[m.name] = value{v, m.unit}
	}
	printLayers(w, out, median(tracedMS))
}

// countedLayers sums the counters of the counted prefix of traced
// operations, derives the ratios, and divides counts by the number of
// operations.
func countedLayers(w *workload, ops []opRecord) map[string]float64 {
	sum := map[string]float64{}
	n := 0
	for _, op := range ops {
		if !op.traced || n == w.counted {
			continue
		}
		n++
		for k, v := range op.layers {
			if k == "core.worklist_high_water" {
				sum[k] = max(sum[k], v)
			} else {
				sum[k] += v
			}
		}
	}
	ratios(sum)
	for _, m := range perLayer {
		if m.unit == "count" || m.unit == "B" {
			if m.name != "core.worklist_high_water" {
				sum[m.name] /= float64(n)
			}
		}
	}
	return sum
}

// printLayers writes the human-readable per-layer table.
func printLayers(w *workload, L map[string]value, opMS float64) {
	fmt.Printf("  traced operation median %.3f ms; times are medians per traced operation,\n", opMS)
	fmt.Printf("  counts are per operation over the first %d traced operation(s)\n", w.counted)
	for _, m := range perLayer {
		tag := ""
		if m.exact {
			tag = "exact"
		}
		fmt.Printf("  %-28s %16.4f %-6s %s\n", m.name, L[m.name].Value, m.unit, tag)
	}
	u := L["unattributed_ms"].Value
	if u > opMS/10 {
		fmt.Printf("  note: unattributed_ms is %.1f%% of the traced operation (see ledger/README.md)\n", u/opMS*100)
	}
}

// runCheckExact sets the workload up twice from scratch with one seed,
// runs the counted prefix of traced operations on each, and compares
// every counter. Counters marked exact must agree; any that differ are
// listed.
func runCheckExact(w *workload, e *env) error {
	exp, err := loadExpected(filepath.Join(e.root, "ledger", "oracle", w.oracle))
	if err != nil {
		return err
	}
	var runs []map[string]float64
	for r := 0; r < 2; r++ {
		s, _, err := setupAll(w, e, 1, 0)
		if err != nil {
			return err
		}
		ops := runOps(s, exp, 0, 2*w.counted, true, nil)
		if err := s.close(); err != nil {
			return err
		}
		for _, op := range ops {
			if op.failed {
				return fmt.Errorf("an operation failed; counters not compared")
			}
		}
		runs = append(runs, countedLayers(w, ops))
	}
	var bad []string
	for _, m := range perLayer {
		if m.unit == "ms" || m.unit == "%" {
			continue
		}
		a, b := runs[0][m.name], runs[1][m.name]
		status := "same"
		if a != b {
			status = "DIFFERS"
			if m.exact {
				bad = append(bad, m.name)
			}
		}
		fmt.Printf("  %-28s %16.4f %16.4f  %-7s exact=%v\n", m.name, a, b, status, m.exact)
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("counters marked exact differ between two runs: %v", bad)
	}
	fmt.Printf("ledger: %s: every counter marked exact repeats\n", w.name)
	return nil
}

// writeWorkloadOracle records the findings of the workload's unedited
// input, for review before it is committed as ledger/oracle/<file>.
func writeWorkloadOracle(w *workload, e *env, path string) error {
	var rep *analysis.Report
	var corpus string
	if w.name == "cold-real" {
		files, err := readPinned(e.root)
		if err != nil {
			return err
		}
		pkg, err := analysis.LoadFiles(files)
		if err != nil {
			return err
		}
		if rep, err = analysis.Analyze(pkg, analysis.Config{Parallel: e.parallel}); err != nil {
			return err
		}
		corpus = pinnedDir + " (" + pinnedSum + ")"
	} else {
		pkg, err := analysis.LoadFiles(generateBase())
		if err != nil {
			return err
		}
		if rep, err = analysis.Analyze(pkg, analysis.Config{Parallel: e.parallel}); err != nil {
			return err
		}
		corpus = fmt.Sprintf("synth.GenerateGo %+v", baseCorpus)
	}
	return writeExpected(path, corpus, rep)
}
