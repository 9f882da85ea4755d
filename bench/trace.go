package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one (-1 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory; nothing is written until the run ends. All
// spans are recorded by the benchmark's own code around calls into a
// layer's public functions — the program under test is not instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (the parent handle for child
// spans) and the function that closes it.
func (t *tracer) begin(name string, parent, op int) (int, func()) {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id].EndNS = end
		t.mu.Unlock()
	}
}

// time records f as a childless span.
func (t *tracer) time(name string, parent, op int, f func()) {
	_, end := t.begin(name, parent, op)
	f()
	end()
}

// seconds returns the durations of every closed span called name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= s.StartNS {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// med is the median duration in seconds of the spans called name.
func (t *tracer) med(name string) float64 { return median(t.seconds(name)) }

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
