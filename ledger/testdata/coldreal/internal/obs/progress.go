package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a live per-phase ticker for long runs: phase
// announcements print immediately, and counted phases (job pools)
// re-print at most every interval so a parallel driver does not flood
// stderr. All methods are nil-safe and goroutine-safe; output is a
// human courtesy, never part of a machine-readable report.
type Progress struct {
	w        io.Writer
	interval time.Duration

	mu   sync.Mutex
	last time.Time

	done  atomic.Int64
	total int64
	label string
}

// NewProgress returns a ticker writing to w (typically stderr),
// printing counted updates at most every 200ms.
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, interval: 200 * time.Millisecond}
}

// Phasef prints one immediate progress line. Nil-safe.
func (p *Progress) Phasef(format string, args ...any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	fmt.Fprintf(p.w, "progress: "+format+"\n", args...)
	p.mu.Unlock()
}

// StartCount begins a counted phase of total steps. Nil-safe.
func (p *Progress) StartCount(label string, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label = label
	p.total = int64(total)
	p.last = time.Time{}
	p.mu.Unlock()
	p.done.Store(0)
}

// Tick marks one step of the counted phase done, printing a rate-
// limited progress line. Nil-safe; safe for concurrent workers.
func (p *Progress) Tick() {
	if p == nil {
		return
	}
	n := p.done.Add(1)
	now := time.Now()
	p.mu.Lock()
	if n == p.total || now.Sub(p.last) >= p.interval {
		p.last = now
		fmt.Fprintf(p.w, "progress: %s %d/%d\n", p.label, n, p.total)
	}
	p.mu.Unlock()
}
