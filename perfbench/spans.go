package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call in the traced replay. Spans of one op share
// Op; Parent is 0 for the op's root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; write dumps them when the run ends,
// so no file I/O lands inside a traced op.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(op, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// do runs fn inside a span named name under parent.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// write dumps the spans as JSON lines.
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

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once, and a
// child sticking out of its parent counts only inside it), indexed like
// spans.
func selfTimes(spans []span) []int64 {
	idx := make(map[int]int, len(spans))
	kids := make(map[int][]span)
	for i, s := range spans {
		idx[s.ID] = i
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = int64(s.dur()) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// perOpSelf sums self time by span name within each op and returns, per
// name, one value per op that has the span (in milliseconds). A layer
// called several times in one op (one solve per scheduler) reports its
// total for the op.
func perOpSelf(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	type key struct {
		op   int
		name string
	}
	sum := map[key]int64{}
	var order []key
	for i, s := range spans {
		k := key{s.Op, s.Name}
		if _, ok := sum[k]; !ok {
			order = append(order, k)
		}
		sum[k] += self[i]
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sum[k])/1e6)
	}
	return out
}
