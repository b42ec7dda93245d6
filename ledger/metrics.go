package main

import (
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// metric is one reported figure. Its name, unit and direction are the
// contract BENCHMARK.json repeats. exact marks a work counter that two
// traced runs with one seed reproduce exactly (checked by -check-exact);
// later changes may cite an exact counter as a count.
type metric struct {
	name, unit, better string
	exact              bool
}

// endToEnd are measured with tracing off. One operation is, per
// workload: a cold one-shot run (cold-real), a CI run on a new commit
// (commit-rerun) or one edit's round trip through the daemon
// (edit-stream). The tail is p90 for commit-rerun, p95 for edit-stream
// and the maximum for cold-real (see workload.tail).
var endToEnd = []metric{
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are measured by the traced run. Times are per traced
// operation (median); counters are per operation over the counted
// prefix of traced operations, so that they repeat exactly.
var perLayer = func() []metric {
	ms := func(n string) metric { return metric{name: n, unit: "ms", better: "lower"} }
	count := func(n, better string) metric { return metric{name: n, unit: "count", better: better, exact: true} }
	ratio := func(n, better string) metric { return metric{name: n, unit: "ratio", better: better, exact: true} }
	out := []metric{
		ms("gosrc.read_ms"), ms("gosrc.translate_ms"), count("gosrc.files", "lower"), count("gosrc.functions", "lower"),
		ms("ir.lower_ms"), ms("ir.relower_ms"), count("ir.functions", "lower"),
		ms("pdm.skeleton_ms"), count("pdm.skeleton_builds", "lower"), count("pdm.deferred_stmts", "lower"),
		ms("pdm.fork_ms"),
	}
	for _, c := range propertyCheckers() {
		out = append(out, ms("pdm.fork_ms."+c))
	}
	out = append(out,
		count("pdm.skeleton_forks", "lower"), count("pdm.layered_events", "lower"), count("pdm.pruned_events", "higher"),
		ratio("pdm.events_per_fork", "lower"),
		count("core.worklist_pushes", "lower"), count("core.reach_inserts", "lower"), count("core.compositions", "lower"),
		count("core.cycle_eliminations", "lower"), count("core.edges_added", "lower"), count("core.worklist_high_water", "lower"),
		ms("analysis.model_ms"), ms("analysis.job_self_ms"), ms("analysis.merge_ms"), ms("analysis.render_ms"),
		count("driver.jobs", "lower"), count("driver.jobs_solved", "lower"), ratio("driver.solved_ratio", "lower"),
		ms("cache.lookup_ms"), ms("cache.store_ms"),
		count("cache.hits", "higher"), count("cache.misses", "lower"), count("cache.stores", "lower"), ratio("cache.hit_ratio", "higher"),
		count("memo.hits", "higher"), count("memo.misses", "lower"), ratio("memo.hit_ratio", "higher"),
		ms("snapshot.encode_ms"), ms("snapshot.decode_ms"),
		count("snapshot.stores", "lower"), metric{name: "snapshot.bytes", unit: "B", better: "lower", exact: true}, count("snapshot.hits", "higher"),
		ms("server.http_ms"), count("server.requests", "lower"),
		ratio("props.memo_share", "higher"), ratio("props.disk_share", "higher"), ratio("props.solver_share", "lower"),
		count("props.ring_hits", "higher"),
		metric{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
		ms("unattributed_ms"),
		metric{name: "obs.traced_ops", unit: "count", better: "higher"},
		metric{name: "obs.untraced_ops", unit: "count", better: "higher"},
	)
	return out
}()

// propertyCheckers lists the checkers that solve a skeleton fork, in
// registry order. The ledger's per-checker fork metrics are fixed by
// BENCHMARK.json; a test checks the registry still matches it.
func propertyCheckers() []string {
	return []string{
		"chanclose", "rwlock", "doublelock", "fileleak", "taint", "sqlrows",
		"waitgroup", "semabalance", "lockbalance", "poolexchange", "poolexhaust", "depthbound",
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

var hwmLine = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB`)

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so the next peakRSSMB covers only what follows.
// The heap is left as it is: returning it to the OS here would make the
// next operation fault it back in, which the warm-up exists to avoid.
// It reports whether the kernel allowed the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	m := hwmLine.FindSubmatch(data)
	if m == nil {
		return math.NaN()
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}
