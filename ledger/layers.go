package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rasc/internal/analysis"
	"rasc/internal/obs"
)

// event is one finished span of a Chrome trace written by obs.Tracer.
// Times are microseconds from the tracer's origin. Top-level spans own
// a lane ("tid") while open; a span's children share its lane and lie
// inside it in time.
type event struct {
	Name string `json:"name"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	TID  int    `json:"tid"`
}

func (e event) end() int64 { return e.TS + e.Dur }

func parseTrace(data []byte) ([]event, error) {
	var tf struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tf.TraceEvents, nil
}

func traceEvents(tr *obs.Tracer) ([]event, error) {
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		return nil, err
	}
	return parseTrace([]byte(b.String()))
}

// span is a [start, end) interval in microseconds.
type span struct{ lo, hi int64 }

// covered returns the length of the union of the spans, clipped to
// [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, s := range spans {
		s.lo, s.hi = max(s.lo, lo), min(s.hi, hi)
		if s.hi <= s.lo {
			continue
		}
		if open && s.lo <= curHi {
			curHi = max(curHi, s.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = s.lo, s.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// children returns, for each event, the indices of the events nested in
// it: later-or-equal start, earlier-or-equal end, same lane.
func children(evs []event) map[int][]int {
	byLane := map[int][]int{}
	for i, e := range evs {
		byLane[e.TID] = append(byLane[e.TID], i)
	}
	out := map[int][]int{}
	for _, idx := range byLane {
		sort.Slice(idx, func(a, b int) bool {
			ea, eb := evs[idx[a]], evs[idx[b]]
			if ea.TS != eb.TS {
				return ea.TS < eb.TS
			}
			return ea.Dur > eb.Dur
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && evs[stack[len(stack)-1]].end() < evs[i].end() {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				out[p] = append(out[p], i)
			}
			stack = append(stack, i)
		}
	}
	return out
}

// modelCheckers are the checkers whose jobs run a concurrency model
// instead of a skeleton fork; their solve time is analysis.model_ms.
func modelCheckers() map[string]bool {
	m := map[string]bool{}
	for _, c := range analysis.All() {
		if c.Run != nil {
			m[c.Name] = true
		}
	}
	return m
}

const usPerMs = 1000.0

// jobSpans counts the jobs that opened a span. Memo hits are served
// before a job's span opens, so driver.jobs minus this is the number of
// jobs the memo served. It is an input to the shares, not an output.
const jobSpans = "internal.job_spans"

// engineLayers attributes the spans the analysis driver records
// (Config.Trace) to layers, adding milliseconds into L:
//
//   - skeleton:E self time (less snapshot encode/decode) → pdm.skeleton_ms
//   - solve under job:C/E, less any overlapping skeleton:E build the job
//     waited for → pdm.fork_ms and pdm.fork_ms.C, or analysis.model_ms
//     for the model checkers
//   - job:C/E time outside cache.lookup, solve and cache.store →
//     analysis.job_self_ms
//   - cache.lookup, cache.store, merge, snapshot.encode/decode → their
//     own layers
func engineLayers(evs []event, L map[string]float64) {
	model := modelCheckers()
	kids := children(evs)
	skel := map[string][]span{}
	for _, e := range evs {
		if entry, ok := strings.CutPrefix(e.Name, "skeleton:"); ok {
			skel[entry] = append(skel[entry], span{e.TS, e.end()})
		}
	}
	for i, e := range evs {
		switch {
		case strings.HasPrefix(e.Name, "skeleton:"):
			self := e.Dur
			for _, k := range kids[i] {
				self -= evs[k].Dur
			}
			L["pdm.skeleton_ms"] += float64(self) / usPerMs
		case e.Name == "snapshot.encode":
			L["snapshot.encode_ms"] += float64(e.Dur) / usPerMs
		case e.Name == "snapshot.decode":
			L["snapshot.decode_ms"] += float64(e.Dur) / usPerMs
		case e.Name == "merge":
			L["analysis.merge_ms"] += float64(e.Dur) / usPerMs
		case strings.HasPrefix(e.Name, "job:"):
			checker, entry, _ := strings.Cut(strings.TrimPrefix(e.Name, "job:"), "/")
			L[jobSpans]++
			self := e.Dur
			for _, k := range kids[i] {
				c := evs[k]
				self -= c.Dur
				switch c.Name {
				case "cache.lookup":
					L["cache.lookup_ms"] += float64(c.Dur) / usPerMs
				case "cache.store":
					L["cache.store_ms"] += float64(c.Dur) / usPerMs
				case "solve":
					if model[checker] {
						L["analysis.model_ms"] += float64(c.Dur) / usPerMs
						continue
					}
					fork := c.Dur - covered(append([]span(nil), skel[entry]...), c.TS, c.end())
					L["pdm.fork_ms"] += float64(fork) / usPerMs
					L["pdm.fork_ms."+checker] += float64(fork) / usPerMs
				}
			}
			L["analysis.job_self_ms"] += float64(self) / usPerMs
		}
	}
}

// spansOf converts events to intervals, leaving out the named ones.
func spansOf(evs []event, skip ...string) []span {
	var out []span
	for _, e := range evs {
		keep := true
		for _, s := range skip {
			if e.Name == s {
				keep = false
			}
		}
		if keep {
			out = append(out, span{e.TS, e.end()})
		}
	}
	return out
}

// counterLayers maps the program's registry (obs metric names) to the
// ledger's layer counters. before may be nil (a fresh registry).
func counterLayers(after, before *obs.MetricsSnapshot, L map[string]float64) {
	c := func(name string) float64 {
		v := after.Counters[name]
		if before != nil {
			v -= before.Counters[name]
		}
		return float64(v)
	}
	for _, m := range []struct{ ledger, prog string }{
		{"core.worklist_pushes", "solver.worklist_pushes"},
		{"core.reach_inserts", "solver.reach_inserts"},
		{"core.compositions", "solver.compositions"},
		{"core.cycle_eliminations", "solver.cycle_eliminations"},
		{"core.edges_added", "solver.edges_added"},
		{"pdm.skeleton_builds", "pdm.skeleton_builds"},
		{"pdm.deferred_stmts", "pdm.deferred_stmts"},
		{"pdm.skeleton_forks", "pdm.skeleton_forks"},
		{"pdm.layered_events", "pdm.layered_events"},
		{"pdm.pruned_events", "pdm.pruned_events"},
		{"driver.jobs", "driver.jobs"},
		{"driver.jobs_solved", "driver.jobs_solved"},
		{"cache.hits", "cache.hits"},
		{"cache.misses", "cache.misses"},
		{"cache.stores", "cache.stores"},
		{"memo.hits", "server.memo_hits"},
		{"memo.misses", "server.memo_misses"},
		{"snapshot.stores", "snapshot.stores"},
		{"snapshot.bytes", "snapshot.bytes"},
		{"snapshot.hits", "snapshot.hits"},
		{"server.requests", "server.requests"},
	} {
		L[m.ledger] += c(m.prog)
	}
	// Requests that re-lowered nothing were served from the resident
	// program as-is or from the lowered-snapshot ring.
	relowers := after.Histograms["server.relower_ms"].Count
	if before != nil {
		relowers -= before.Histograms["server.relower_ms"].Count
	}
	L["props.ring_hits"] += c("server.requests") - float64(relowers)
	// A high-water mark is not additive: keep the largest seen.
	L["core.worklist_high_water"] = max(L["core.worklist_high_water"], float64(after.Gauges["solver.worklist_high_water"]))
}

// ratios derives the ledger's ratio metrics from its counters.
func ratios(L map[string]float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	L["pdm.events_per_fork"] = div(L["pdm.layered_events"], L["pdm.skeleton_forks"])
	L["driver.solved_ratio"] = div(L["driver.jobs_solved"], L["driver.jobs"])
	L["cache.hit_ratio"] = div(L["cache.hits"], L["cache.hits"]+L["cache.misses"])
	L["memo.hit_ratio"] = div(L["memo.hits"], L["memo.hits"]+L["memo.misses"])
	L["props.memo_share"] = div(L["driver.jobs"]-L[jobSpans], L["driver.jobs"])
	L["props.disk_share"] = div(L[jobSpans]-L["driver.jobs_solved"], L["driver.jobs"])
	L["props.solver_share"] = div(L["driver.jobs_solved"], L["driver.jobs"])
}
