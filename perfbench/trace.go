package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Spans of one operation
// share Op; Parent links a span to the span that caused it (0: a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced operations pass nil and pay one nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, op, parent int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Now()})
	return id
}

// end closes span id now.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// get returns span id.
func (r *recorder) get(id int64) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// children returns the intervals of the spans whose parent is id.
func (r *recorder) children(id int64) []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []interval
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// named returns every span called name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as one JSON array at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the enclosing span (recorder, op, id) through a context,
// so a Backend wrapper called from the coordinator's goroutines can parent
// its block spans on the product that dispatched them.
type spanKey struct{}

type spanCtx struct {
	rec    *recorder
	op, id int64
}

func withSpan(ctx context.Context, rec *recorder, op, id int64) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanCtx{rec, op, id})
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok
}
