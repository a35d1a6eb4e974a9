package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's own side of the call. Spans of one operation share Job
// (a simd job ID, or "run-<k>" for engine runs); Parent names the span
// that caused this one, 0 for a root.
type Span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Job     string            `json:"job"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	tracer  *Tracer
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so timed runs pay nothing.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span; the caller ends it with End.
func (t *Tracer) Start(job, name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	return t.add(&Span{Job: job, Name: name, StartNS: int64(time.Since(t.epoch))}, parent)
}

// Record adds a span that already happened.
func (t *Tracer) Record(job, name string, parent *Span, start, end time.Time) *Span {
	if t == nil {
		return nil
	}
	return t.add(&Span{Job: job, Name: name, StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))}, parent)
}

func (t *Tracer) add(sp *Span, parent *Span) *Span {
	sp.tracer = t
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent != nil {
		sp.Parent = parent.ID
	}
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	return sp
}

// End closes the span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.tracer.mu.Lock()
	sp.EndNS = int64(time.Since(sp.tracer.epoch))
	sp.tracer.mu.Unlock()
}

// Set attaches an attribute.
func (sp *Span) Set(key, value string) {
	if sp == nil {
		return
	}
	sp.tracer.mu.Lock()
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string)
	}
	sp.Attrs[key] = value
	sp.tracer.mu.Unlock()
}

// WriteFile writes every span as one NDJSON line.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
