package analysis

import (
	"sync"
	"sync/atomic"

	"rasc/internal/obs"
)

// jobMemo is the in-memory tier of the result store: raw
// (pre-suppression) per-job diagnostics under the same content key as
// the disk records (jobKey). Because the key pins the full analysis
// input of a job, a memo entry can never resolve to a result computed
// from different code, checker definitions or explain mode; the memo
// therefore needs no invalidation, and an entry survives edits
// elsewhere in the program exactly as a disk record does.
//
// The memo lives on an Engine and is shared by every resident program
// and request: content addressing makes cross-program sharing sound.
// Lookups and stores are mutex-guarded; capacity is bounded by a FIFO
// over insertion order (content keys have no useful recency structure —
// a stale summary never hits again regardless of eviction order).
type jobMemo struct {
	mu      sync.Mutex
	max     int
	entries map[jobKey][]Diagnostic
	order   []jobKey

	hits, misses atomic.Int64
	m            *obs.ServerMetrics // nil-safe instruments
}

// defaultMemoEntries bounds the memo when EngineConfig leaves it unset:
// enough for dozens of warm programs, small next to the program state
// itself (a record is one job's diagnostics).
const defaultMemoEntries = 8192

func newJobMemo(max int, m *obs.ServerMetrics) *jobMemo {
	if max <= 0 {
		max = defaultMemoEntries
	}
	return &jobMemo{max: max, entries: map[jobKey][]Diagnostic{}, m: m}
}

func (jm *jobMemo) load(k jobKey) ([]Diagnostic, bool) {
	jm.mu.Lock()
	ds, ok := jm.entries[k]
	jm.mu.Unlock()
	if ok {
		jm.hits.Add(1)
		if jm.m != nil {
			jm.m.MemoHits.Inc()
		}
	} else {
		jm.misses.Add(1)
		if jm.m != nil {
			jm.m.MemoMisses.Inc()
		}
	}
	return ds, ok
}

func (jm *jobMemo) store(k jobKey, ds []Diagnostic) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if _, ok := jm.entries[k]; !ok {
		for len(jm.order) >= jm.max {
			drop := jm.order[0]
			jm.order = jm.order[1:]
			delete(jm.entries, drop)
		}
		jm.order = append(jm.order, k)
	}
	jm.entries[k] = ds
}

func (jm *jobMemo) len() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.entries)
}
