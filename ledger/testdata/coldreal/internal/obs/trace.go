// Package obs is the toolkit's zero-dependency observability layer: a
// hierarchical span tracer exported as Chrome trace-event JSON (viewable
// in Perfetto or chrome://tracing), a metrics registry of atomic
// counters, gauges and bounded histograms, and the hook bundles the
// solver (internal/core), skeleton layer (internal/pdm) and analysis
// cache feed when a caller opts in. Every entry point is nil-safe: a
// nil *Tracer, *Span, *Counter, *Gauge or *Histogram is a no-op, so
// instrumented code gates on a single pointer test and the disabled
// path costs one predictable branch.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records spans and renders them as Chrome trace-event JSON.
// Methods are safe for concurrent use; each Span must be finished by
// the goroutine tree that started it (a span itself is not shared).
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	events []traceEvent
	lanes  []bool // busy top-level lanes ("tid"s in the trace)
}

// traceEvent is one Chrome trace-format "complete" (ph=X) event.
// Times are microseconds from the tracer's origin.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the on-disk envelope (the object form, which Perfetto
// and chrome://tracing both accept).
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now()}
}

// Span is one in-flight (or finished) trace span. The zero of *Span is
// usable: every method on a nil span is a no-op, so callers thread
// spans unconditionally and pay nothing when tracing is off.
type Span struct {
	t     *Tracer
	name  string
	lane  int
	top   bool // this span owns its lane and frees it on Finish
	start time.Duration
	args  map[string]any
	done  bool
}

// Start opens a top-level span on the first free lane. Concurrent
// top-level spans land on distinct lanes so Perfetto renders them as
// parallel tracks; children share their parent's lane and nest by time
// containment. Returns nil (a no-op span) on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	lane := -1
	for i, busy := range t.lanes {
		if !busy {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	t.mu.Unlock()
	return &Span{t: t, name: name, lane: lane, top: true, start: time.Since(t.origin)}
}

// Child opens a sub-span on the parent's lane. Nil-safe.
func (sp *Span) Child(name string) *Span {
	if sp == nil || sp.t == nil {
		return nil
	}
	return &Span{t: sp.t, name: name, lane: sp.lane, start: time.Since(sp.t.origin)}
}

// SetAttr attaches a key/value argument shown in the trace viewer's
// span details. Not safe for concurrent use on one span. Nil-safe.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	if sp.args == nil {
		sp.args = map[string]any{}
	}
	sp.args[key] = value
}

// Finish closes the span, recording it in the tracer. Finishing twice
// records once. Nil-safe.
func (sp *Span) Finish() {
	if sp == nil || sp.done {
		return
	}
	sp.done = true
	t := sp.t
	end := time.Since(t.origin)
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: sp.name,
		Ph:   "X",
		TS:   sp.start.Microseconds(),
		Dur:  (end - sp.start).Microseconds(),
		PID:  1,
		TID:  sp.lane,
		Args: sp.args,
	})
	if sp.top {
		t.lanes[sp.lane] = false
	}
	t.mu.Unlock()
}

// WriteJSON renders the finished spans as a Chrome trace-event file.
// Events are ordered by start time (then lane) so output is
// deterministic for a deterministic span schedule. Nil-safe (writes an
// empty trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	out := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		out.TraceEvents = append(out.TraceEvents, t.events...)
		t.mu.Unlock()
		sort.SliceStable(out.TraceEvents, func(i, j int) bool {
			a, b := out.TraceEvents[i], out.TraceEvents[j]
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			return a.TID < b.TID
		})
	}
	return writeTraceFile(w, out)
}

// writeTraceFile encodes one trace envelope as indented JSON.
func writeTraceFile(w io.Writer, out traceFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
