package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Op; Parent indexes the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; with on false it records nothing, which
// is the untraced pass the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// rename relabels a span once its outcome is known (a MUP lookup is a
// hit, a search or a repair only after it returns).
func (t *tracer) rename(i int, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			st, en := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if en > st {
				covered += en - st
				reach = en
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
