package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: the union counts once
		{Op: 1, ID: 4, Parent: 3, Name: "c", Start: 25, End: 35},
		{Op: 1, ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // sticks out: clipped to the parent
		{Op: 1, ID: 6, Parent: 4, Name: "e", Start: 40, End: 45},  // outside its parent entirely
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (40 + 10), // children cover [10,50) and [90,100)
		20,
		30 - 10,
		10, // e lies outside c, so covers none of it
		30,
		5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredAdjacentAndNested(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 60}, {Start: 10, End: 20}, {Start: 20, End: 30}, {Start: 12, End: 18}}
	if c := covered(p, kids); c != 30 {
		t.Errorf("covered = %d, want 30", c)
	}
	if c := covered(p, nil); c != 0 {
		t.Errorf("covered with no children = %d", c)
	}
}

func TestPerOpSelfSumsRepeatedLayers(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 10e6},
		{Op: 1, ID: 2, Parent: 1, Name: "solve", Start: 0, End: 2e6},
		{Op: 1, ID: 3, Parent: 1, Name: "solve", Start: 3e6, End: 4e6},
		{Op: 2, ID: 4, Name: "op", Start: 20e6, End: 24e6},
		{Op: 2, ID: 5, Parent: 4, Name: "solve", Start: 20e6, End: 21e6},
	}
	got := perOpSelf(spans)
	if want := []float64{3, 1}; !reflect.DeepEqual(got["solve"], want) {
		t.Errorf("solve per op = %v, want %v", got["solve"], want)
	}
	if want := []float64{7, 3}; !reflect.DeepEqual(got["op"], want) {
		t.Errorf("op self per op = %v, want %v", got["op"], want)
	}
}

func TestUncoveredPerOp(t *testing.T) {
	spans := []span{
		{Op: 7, ID: 1, Name: "op", Start: 0, End: 40e6},
		{Op: 7, ID: 2, Parent: 1, Name: "service.handler", Start: 0, End: 10e6},
		{Op: 7, ID: 3, Parent: 1, Name: "replay", Start: 10e6, End: 20e6},
		{Op: 7, ID: 4, Parent: 3, Name: "x", Start: 11e6, End: 14e6},
		{Op: 7, ID: 5, Parent: 3, Name: "y", Start: 14e6, End: 18e6},
		{Op: 7, ID: 6, Parent: 1, Name: "detail", Start: 20e6, End: 40e6},
		{Op: 7, ID: 7, Parent: 6, Name: "z", Start: 20e6, End: 40e6}, // detail is not in the remainder
		{Op: 8, ID: 8, Name: "op", Start: 50e6, End: 60e6},           // no replay: skipped
		{Op: 8, ID: 9, Parent: 8, Name: "service.handler", Start: 50e6, End: 60e6},
	}
	if got, want := uncoveredPerOp(spans), []float64{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("uncovered = %v, want %v", got, want)
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	tr.do(1, 0, "op", func() { tr.do(1, 1, "child", func() {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 1 || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.Contains(string(data), `"name":"child"`) {
		t.Errorf("span dump:\n%s", data)
	}
}
