package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// acquisition share its timestamp as trace ID; spans of one served
// request share the request's sequence number.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no tracing cost beyond a nil
// check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(trace, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans)
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
