package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	name        string
	id, parent  int64
	req         int64
	start, stop time.Time
}

// recorder keeps spans in memory and writes them out when the run ends.
// A nil *recorder records nothing, so untraced runs pay one nil check per
// call site. Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id, so that children can name a parent that is still
// open.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved id.
func (r *recorder) add(id int64, name string, parent, req int64, start, stop time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, req: req, start: start, stop: stop})
	r.mu.Unlock()
}

// do runs f inside a new span and returns the span's id.
func (r *recorder) do(name string, parent, req int64, f func()) int64 {
	if r == nil {
		f()
		return 0
	}
	id := r.id()
	start := time.Now()
	f()
	r.add(id, name, parent, req, start, time.Now())
	return id
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microseconds since the recorder started). Each request gets its
// own thread lane so overlapping requests nest correctly in a viewer.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts:   us(s.start.Sub(r.t0)),
			Dur:  us(s.stop.Sub(s.start)),
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
