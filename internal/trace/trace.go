// Package trace provides structured, levelled event tracing for
// simulation runs. Experiments run with tracing disabled (the default
// no-op sink costs one branch per call); debugging sessions attach a
// writer sink and optionally filter by category.
//
// The categories mirror the protocol layers of the reproduction so a
// trace of a run reads like the paper's walk-through of its algorithms:
// cluster formation, logical route maintenance, membership summaries,
// and multicast forwarding.
package trace

import (
	"fmt"
	"io"
	"sync"
)

// Category classifies a trace event by subsystem.
type Category int

// Trace categories, one per subsystem that emits events.
const (
	Radio Category = iota
	Cluster
	Routes
	Membership
	Multicast
	NumCategories
)

var categoryNames = [NumCategories]string{
	"radio", "cluster", "routes", "membership", "multicast",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Tracer receives trace events. Implementations must be cheap when
// disabled.
type Tracer interface {
	// Enabled reports whether events of the category are recorded; call
	// sites use it to skip argument formatting entirely.
	Enabled(c Category) bool
	// Eventf records one event at simulated time now.
	Eventf(c Category, now float64, format string, args ...any)
}

// Nop is a Tracer that records nothing.
var Nop Tracer = nop{}

type nop struct{}

func (nop) Enabled(Category) bool                    { return false }
func (nop) Eventf(Category, float64, string, ...any) {}

// Writer traces to an io.Writer with per-category enablement. It is safe
// for use from a single simulation goroutine; the mutex exists only so
// multiple concurrent *runs* may share a writer in debugging sessions.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	enabled [NumCategories]bool
	events  uint64
}

// NewWriter returns a tracer that writes the given categories to w. With
// no categories, all are enabled.
func NewWriter(w io.Writer, cats ...Category) *Writer {
	t := &Writer{w: w}
	if len(cats) == 0 {
		for i := range t.enabled {
			t.enabled[i] = true
		}
		return t
	}
	for _, c := range cats {
		if c >= 0 && c < NumCategories {
			t.enabled[c] = true
		}
	}
	return t
}

// Enabled implements Tracer.
func (t *Writer) Enabled(c Category) bool {
	return c >= 0 && c < NumCategories && t.enabled[c]
}

// Eventf implements Tracer.
func (t *Writer) Eventf(c Category, now float64, format string, args ...any) {
	if !t.Enabled(c) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	fmt.Fprintf(t.w, "%10.4f %-10s %s\n", now, c, fmt.Sprintf(format, args...))
}

// Events returns the number of events recorded.
func (t *Writer) Events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}
