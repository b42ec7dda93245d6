// Persistent incremental-analysis result store. One record per
// (checker, entry) job holds the job's pre-suppression diagnostics and
// nothing else, filed under the job's content key (jobKey): the
// checker-registry fingerprint, the explain bit, the checker's
// fingerprint, the entry name and the digest of the entry's analysis
// input (internal/ir). A key can therefore never resolve to a result
// computed from different analysis input, and invalidation is free: an
// edit changes the digests of exactly the entries whose input contains
// the edited function, their keys stop resolving, and only those jobs
// re-solve; everything else is a hit. The resident engine's in-memory
// memo uses the same key (memo.go).
//
// The on-disk format is deliberately dumb: one JSON file per record in a
// flat directory, each wrapped in an envelope carrying the format
// version and a SHA-256 of the body. Any defect — truncation, garbage,
// a failed integrity check, a version bump — demotes the record to a
// cache miss with a note; the cache never panics and never changes what
// a run reports (beyond the Report.Cache block).
package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rasc/internal/ir"
	"rasc/internal/obs"
)

// CacheVersion is the on-disk format version. Bump it whenever the
// record schema or key derivation changes incompatibly, or when the
// values records hold change for the same key; records written under
// another version read as misses (with a note), never as wrong results.
const CacheVersion = 3

// Cache is a handle on an on-disk result cache directory. It is safe for
// concurrent use by any number of Analyze runs.
type Cache struct {
	dir string

	mu    sync.Mutex
	notes []string
	noted map[string]bool
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("analysis: cache: %w", err)
	}
	return &Cache{dir: dir, noted: map[string]bool{}}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// note records a non-fatal cache incident (corrupt record, version
// skew, failed write) once per distinct message.
func (c *Cache) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	if !c.noted[msg] {
		c.noted[msg] = true
		c.notes = append(c.notes, msg)
	}
	c.mu.Unlock()
}

func (c *Cache) takeNotes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.notes
	c.notes = nil
	c.noted = map[string]bool{}
	return out
}

// envelope wraps every on-disk record with an integrity check.
type envelope struct {
	Version int             `json:"version"`
	Sum     string          `json:"sum"` // hex SHA-256 of Body
	Body    json.RawMessage `json:"body"`
}

// loadStatus classifies one record lookup, for metric hooks. Every
// status except loadHit behaves as a miss.
type loadStatus int

const (
	loadHit loadStatus = iota
	loadAbsent
	loadCorrupt // decode, integrity-check or body failure
	loadSkew    // format version mismatch
	loadError   // unreadable file (permissions, I/O)
)

// load reads the record at path into out. A missing file is a silent
// miss; a corrupt or version-skewed file is a miss with a note (and a
// best-effort removal of corrupt files so they cannot keep tripping).
// The returned status distinguishes the miss causes for metrics; every
// caller treating it as a boolean compares against loadHit.
func (c *Cache) load(path string, out any) loadStatus {
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.note("cache: unreadable %s: %v", filepath.Base(path), err)
			return loadError
		}
		return loadAbsent
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		c.note("cache: corrupt record %s discarded: %v", filepath.Base(path), err)
		os.Remove(path)
		return loadCorrupt
	}
	if env.Version != CacheVersion {
		c.note("cache: record %s has format version %d, want %d; falling back to a cold solve",
			filepath.Base(path), env.Version, CacheVersion)
		return loadSkew
	}
	sum := sha256.Sum256(env.Body)
	if hex.EncodeToString(sum[:]) != env.Sum {
		c.note("cache: record %s failed its integrity check; discarded", filepath.Base(path))
		os.Remove(path)
		return loadCorrupt
	}
	if err := json.Unmarshal(env.Body, out); err != nil {
		c.note("cache: record %s body undecodable; discarded: %v", filepath.Base(path), err)
		os.Remove(path)
		return loadCorrupt
	}
	return loadHit
}

// store writes a record atomically (temp file + rename). Failures are
// noted and otherwise ignored: a cache that cannot write degrades to a
// cache that never hits.
func (c *Cache) store(path string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		c.note("cache: encoding %s: %v", filepath.Base(path), err)
		return
	}
	sum := sha256.Sum256(raw)
	env := envelope{Version: CacheVersion, Sum: hex.EncodeToString(sum[:]), Body: raw}
	enc, err := json.Marshal(env)
	if err != nil {
		c.note("cache: encoding %s: %v", filepath.Base(path), err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		c.note("cache: writing %s: %v", filepath.Base(path), err)
		return
	}
	_, werr := tmp.Write(enc)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.note("cache: writing %s: %v", filepath.Base(path), firstErr(werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.note("cache: writing %s: %v", filepath.Base(path), err)
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CacheStats summarizes the cache's effect on one Analyze run.
type CacheStats struct {
	// Hits and Misses count job-record lookups: one per job the memo
	// did not serve.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Notes lists non-fatal cache incidents (corruption, version skew).
	Notes []string `json:"notes,omitempty"`
}

// HitRate returns hits/(hits+misses) in percent, 100 for an empty run.
func (s *CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 100
	}
	return 100 * float64(s.Hits) / float64(total)
}

// jobKey is the content key of one (checker, entry) job. It pins every
// input the job's diagnostics depend on: the whole checker registry
// (the union of event callees shapes the shared skeleton), whether
// provenance is attached (records store diagnostics verbatim, so an
// explain record must never serve a plain run or vice versa), the
// checker itself, and the entry's code (inputOf). The memo map is keyed
// by it and the disk record's file name is derived from it.
type jobKey struct {
	reg     string // registry fingerprint
	explain bool
	checker string // checker fingerprint
	entry   string
	input   ir.Digest
}

// inputOf digests the code a job of checker c on entry f reads. A
// property checker solves the entry's call-graph closure, which the
// entry's Summary pins. A model checker (Run) follows a
// context-insensitive flow relation in which a callee returns to every
// one of its callers, so its goroutines can reach code outside the
// closure; the entry's Component pins everything connected to it.
func inputOf(c *Checker, f *ir.Function) ir.Digest {
	if c.Run != nil {
		return f.Component
	}
	return f.Summary
}

// file names the key's record in the cache directory.
func (k jobKey) file() string {
	h := sha256.New()
	fmt.Fprintf(h, "job\nreg:%s\nexplain:%t\nchecker:%s\nentry:%s\ninput:%s\n",
		k.reg, k.explain, k.checker, k.entry, k.input)
	return "job-" + hex.EncodeToString(h.Sum(nil)) + ".json"
}

// jobRecord is a stored job result: its pre-suppression diagnostics.
// Suppression directives are applied afresh by every run's merge phase,
// so //rasc:ignore edits never require invalidation.
type jobRecord struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// cacheRun binds a Cache to one Analyze run's accounting: hit and miss
// counts for the run's CacheStats, and the metric bundle (nil OK) that
// receives per-lookup hit/miss/corrupt/skew and per-write store counts.
type cacheRun struct {
	c            *Cache
	metrics      *obs.CacheMetrics
	hits, misses atomic.Int64
}

// load looks one job's record up.
func (r *cacheRun) load(k jobKey) ([]Diagnostic, bool) {
	var rec jobRecord
	st := r.c.load(filepath.Join(r.c.dir, k.file()), &rec)
	if m := r.metrics; m != nil {
		switch st {
		case loadHit:
			m.Hits.Inc()
		case loadCorrupt:
			m.Corrupt.Inc()
		case loadSkew:
			m.VersionSkew.Inc()
		}
		if st != loadHit {
			m.Misses.Inc()
		}
	}
	if st != loadHit {
		r.misses.Add(1)
		return nil, false
	}
	r.hits.Add(1)
	return rec.Diagnostics, true
}

// store persists one solved job's diagnostics.
func (r *cacheRun) store(k jobKey, ds []Diagnostic) {
	r.c.store(filepath.Join(r.c.dir, k.file()), jobRecord{Diagnostics: ds})
	if r.metrics != nil {
		r.metrics.Stores.Inc()
	}
}

// stats reports the run's CacheStats.
func (r *cacheRun) stats() *CacheStats {
	return &CacheStats{
		Hits:   int(r.hits.Load()),
		Misses: int(r.misses.Load()),
		Notes:  r.c.takeNotes(),
	}
}
