package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// NewTraceID returns a fresh 16-hex-char request trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a constant
		// fallback keeps tracing non-fatal here.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// FlightConfig sizes a Flight recorder. Zero fields take defaults.
type FlightConfig struct {
	// Recent is the ring capacity: the most recent Recent requests are
	// always retained (default 64).
	Recent int
	// Slowest is how many of the slowest-ever requests are retained
	// beyond the ring (default 8). A slow request stays inspectable
	// long after the ring has wrapped past it.
	Slowest int
	// SlowUS is the slow-request threshold in microseconds: a request at
	// or above it is persisted to Dir as Chrome trace JSON the moment it
	// is recorded. 0 disables persistence.
	SlowUS int64
	// Dir receives persisted slow traces (flight-<traceid>.json).
	// Empty disables persistence.
	Dir string
	// Metrics, when non-nil, interns the flight.* counters (recorded,
	// persisted, persist_errors) so the recorder shows up in metric
	// snapshots and Prometheus exposition.
	Metrics *Registry
}

// FlightEntry is one recorded request: identity, outcome and the
// request's span records. Entries are immutable once recorded.
type FlightEntry struct {
	Seq        uint64 `json:"seq"`
	TraceID    string `json:"trace_id"`
	Program    string `json:"program"`
	DurUS      int64  `json:"dur_us"`
	Err        string `json:"error,omitempty"`
	MemoHits   int64  `json:"memo_hits"`
	MemoMisses int64  `json:"memo_misses"`
	Persisted  bool   `json:"persisted"`

	events []traceEvent
}

// FlightMeta is the caller-supplied identity and outcome of one
// request being recorded.
type FlightMeta struct {
	TraceID    string
	Program    string
	Err        string
	DurUS      int64
	MemoHits   int64
	MemoMisses int64
}

// Flight is the always-on bounded flight recorder: a ring of the most
// recent requests plus a separate retention set of the slowest ever
// seen, each entry carrying the request's full span tree. Recording is
// lock-cheap — one short critical section per request, not per span
// (spans accumulate in the request's own Tracer) — so the recorder can
// stay on under full traffic. A nil *Flight is a no-op on every
// method.
type Flight struct {
	cfg FlightConfig

	recordedC *Counter
	persistC  *Counter
	persistE  *Counter

	mu      sync.Mutex
	seq     uint64
	ring    []*FlightEntry // circular, len == cfg.Recent once warm
	next    int            // ring index the next entry lands on
	slowest []*FlightEntry // ascending by DurUS, len <= cfg.Slowest
}

// NewFlight builds a recorder. Persistence is active only when both
// SlowUS > 0 and Dir is non-empty.
func NewFlight(cfg FlightConfig) *Flight {
	if cfg.Recent <= 0 {
		cfg.Recent = 64
	}
	if cfg.Slowest < 0 {
		cfg.Slowest = 0
	} else if cfg.Slowest == 0 {
		cfg.Slowest = 8
	}
	f := &Flight{cfg: cfg}
	if cfg.Metrics != nil {
		f.recordedC = cfg.Metrics.Counter("flight.recorded")
		f.persistC = cfg.Metrics.Counter("flight.persisted")
		f.persistE = cfg.Metrics.Counter("flight.persist_errors")
	}
	return f
}

// Record commits one finished request: its metadata plus the span
// events accumulated in tr (nil OK: the entry records with no spans).
// When the request breached the slow threshold, its trace is also
// persisted to the configured directory before Record returns, so the
// evidence survives a crash or restart that follows the slow request.
func (f *Flight) Record(meta FlightMeta, tr *Tracer) {
	if f == nil {
		return
	}
	e := &FlightEntry{
		TraceID:    meta.TraceID,
		Program:    meta.Program,
		DurUS:      meta.DurUS,
		Err:        meta.Err,
		MemoHits:   meta.MemoHits,
		MemoMisses: meta.MemoMisses,
	}
	if tr != nil {
		tr.mu.Lock()
		e.events = append([]traceEvent(nil), tr.events...)
		tr.mu.Unlock()
	}
	persist := f.cfg.SlowUS > 0 && f.cfg.Dir != "" && meta.DurUS >= f.cfg.SlowUS

	f.mu.Lock()
	f.seq++
	e.Seq = f.seq
	if len(f.ring) < f.cfg.Recent {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.next] = e
	}
	f.next = (f.next + 1) % f.cfg.Recent
	if f.cfg.Slowest > 0 {
		i := sort.Search(len(f.slowest), func(i int) bool { return f.slowest[i].DurUS >= e.DurUS })
		if len(f.slowest) < f.cfg.Slowest {
			f.slowest = append(f.slowest, nil)
			copy(f.slowest[i+1:], f.slowest[i:])
			f.slowest[i] = e
		} else if i > 0 {
			// Evict the current fastest of the retained-slowest set.
			copy(f.slowest[0:], f.slowest[1:i])
			f.slowest[i-1] = e
		}
	}
	f.mu.Unlock()
	f.recordedC.Inc()

	if persist {
		err := f.persist(e)
		if err != nil {
			f.persistE.Inc()
		} else {
			f.persistC.Inc()
		}
		// Entry fields are read only under f.mu (readers copy), so the
		// outcome can be recorded after the write without racing.
		f.mu.Lock()
		e.Persisted = err == nil
		f.mu.Unlock()
	}
}

// persist writes one entry's Chrome trace atomically (temp + rename).
func (f *Flight) persist(e *FlightEntry) error {
	name := filepath.Join(f.cfg.Dir, "flight-"+sanitizeID(e.TraceID)+".json")
	tmp, err := os.CreateTemp(f.cfg.Dir, ".flight-*.tmp")
	if err != nil {
		return err
	}
	if err := writeChrome(tmp, []*FlightEntry{e}); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), name)
}

// sanitizeID keeps persisted filenames shell- and path-safe whatever a
// client put in the trace-ID field.
func sanitizeID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && i < 64; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '.')
		}
	}
	if len(out) == 0 {
		return "unnamed"
	}
	return string(out)
}

// retained returns every retained entry — the recent ring oldest-first,
// then any slowest-set entries the ring no longer holds — under the
// lock.
func (f *Flight) retained() []*FlightEntry {
	var out []*FlightEntry
	seen := map[uint64]bool{}
	n := len(f.ring)
	for i := 0; i < n; i++ {
		e := f.ring[(f.next+i)%n]
		out = append(out, e)
		seen[e.Seq] = true
	}
	for _, e := range f.slowest {
		if !seen[e.Seq] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Entries snapshots the retained entries' metadata, ordered by
// recording sequence (oldest first). Nil-safe (empty).
func (f *Flight) Entries() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, 0, len(f.ring)+len(f.slowest))
	for _, e := range f.retained() {
		c := *e
		c.events = nil
		out = append(out, c)
	}
	return out
}

// Lookup finds a retained entry by trace ID (the most recent when IDs
// collide). Nil-safe.
func (f *Flight) Lookup(traceID string) (FlightEntry, bool) {
	if f == nil {
		return FlightEntry{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var found *FlightEntry
	for _, e := range f.retained() {
		if e.TraceID == traceID {
			found = e
		}
	}
	if found == nil {
		return FlightEntry{}, false
	}
	c := *found
	c.events = nil
	return c, true
}

// WriteChrome dumps retained traces as one Chrome trace-event JSON
// file: every retained request when traceID is empty (each request on
// its own pid so viewers render them as separate processes), or just
// the named request. Returns an error when the named trace is not
// retained. Nil-safe (an empty trace).
func (f *Flight) WriteChrome(w io.Writer, traceID string) error {
	var entries []*FlightEntry
	if f != nil {
		f.mu.Lock()
		for _, e := range f.retained() {
			if traceID == "" || e.TraceID == traceID {
				entries = append(entries, e)
			}
		}
		f.mu.Unlock()
	}
	if traceID != "" && len(entries) == 0 {
		return fmt.Errorf("obs: flight: no retained trace %q", traceID)
	}
	return writeChrome(w, entries)
}

// writeChrome renders entries as one trace file; entry i's events land
// on pid i+1. Events inside an entry keep their request-relative
// timestamps, so each request reads as its own timeline from zero.
func writeChrome(w io.Writer, entries []*FlightEntry) error {
	out := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for i, e := range entries {
		for _, ev := range e.events {
			ev.PID = i + 1
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.TID < b.TID
	})
	return writeTraceFile(w, out)
}

// FlightStats is the recorder's point-in-time accounting.
type FlightStats struct {
	Recorded  uint64 `json:"recorded"`
	Retained  int    `json:"retained"`
	Slowest   int    `json:"slowest"`
	SlowestUS int64  `json:"slowest_us"`
}

// Stats snapshots the recorder. Nil-safe (zero).
func (f *Flight) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FlightStats{Recorded: f.seq, Retained: len(f.retained()), Slowest: len(f.slowest)}
	if len(f.slowest) > 0 {
		st.SlowestUS = f.slowest[len(f.slowest)-1].DurUS
	}
	return st
}
