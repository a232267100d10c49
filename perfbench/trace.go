package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the id of the enclosing span
// (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer started.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at the cost of a nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span or request id (0 when tracing is off).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// do runs f inside a span and returns the span's id with f's error.
func (t *tracer) do(req, parent int64, layer, name string, f func() error) (int64, error) {
	if t == nil {
		return 0, f()
	}
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		StartUS: t.us(start), EndUS: t.us(time.Now())})
	return id, err
}

// root records a request's root span over [start, end) under a
// pre-allocated id, so children recorded earlier can name it as parent.
func (t *tracer) root(id int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Req: id, Layer: layer, Name: name, StartUS: t.us(start), EndUS: t.us(end)})
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTime returns each layer's self time summed over all spans, in
// milliseconds: a span's duration minus the part of it that its child
// spans cover.
func selfTime(spans []span) map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += (s.EndUS - s.StartUS - covered(s, kids[s.ID])) / 1000
	}
	return out
}

// covered returns how many microseconds of parent's interval the union of
// its children's intervals covers.
func covered(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartUS, parent.StartUS), min(c.EndUS, parent.EndUS)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end float64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
