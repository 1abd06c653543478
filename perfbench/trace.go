package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the span that caused it (0 = a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run; they are written out
// once, when the run ends, so recording costs a mutex and an append.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started, not yet recorded span.
type open struct {
	id, parent uint64
	name       string
	start      time.Time
}

func (t *tracer) start(name string, parent uint64) open {
	return open{id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// finish records o and returns its duration.
func (t *tracer) finish(o open) time.Duration {
	return t.finishBytes(o, 0)
}

func (t *tracer) finishBytes(o open, bytes int64) time.Duration {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start.Sub(t.t0), End: end.Sub(t.t0), Bytes: bytes})
	t.mu.Unlock()
	return end.Sub(o.start)
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name.
func (t *tracer) durations(name string) []time.Duration {
	ss := t.named(name)
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.dur()
	}
	return ds
}

// childTotals sums, per parent id, the durations of the spans called name.
func (t *tracer) childTotals(name string) map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	for _, s := range t.named(name) {
		out[s.Parent] += s.dur()
	}
	return out
}

// childMax takes, per parent id, the longest span called name.
func (t *tracer) childMax(name string) map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	for _, s := range t.named(name) {
		if d := s.dur(); d > out[s.Parent] {
			out[s.Parent] = d
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanKey carries the current span id through a context, so calls a layer
// makes on the request's behalf (a coordinator's member calls) can name it
// as their parent.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}
