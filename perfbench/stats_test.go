package main

import (
	"errors"
	"math"
	"testing"
)

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, // rank 90: samples 91..100 lie beyond it
		{99, 0.9, false}, // rank 90 (ceil 89.1): only 9 beyond
		{109, 0.9, true}, // rank 99 (ceil 98.1): 10 beyond
		{110, 0.9, true}, // rank 99: 11 beyond
		{1000, 0.99, true},
		{999, 0.99, false},
		{0, 0.5, false},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p, err := percentile(seq(100), 0.9)
	if err != nil || p != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	p, err = percentile(seq(200), 0.9)
	if err != nil || p != 180 {
		t.Fatalf("p90 of 1..200 = %v, %v; want 180", p, err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples succeeded; it leaves only 9 beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(5)); m != 3 {
		t.Errorf("median(1..5) = %v", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median(nil) = %v, want NaN", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(4), 1.25, 2.5, 3.75},
		{seq(2), 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{7, 1, 4, 4, 9, 2, 8, 3, 5, 6}, 2.75, 4.5, 7.25},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
}

func TestOpTallyKeepsFailuresInTheDenominator(t *testing.T) {
	var tl opTally
	for i := range 99 {
		tl.add(float64(i+1), nil)
	}
	boom := errors.New("bad reply")
	tl.add(0.5, boom) // fast but failed: must count as the slowest sample
	if tl.attempted != 100 || tl.failed != 1 || tl.succeeded() != 99 {
		t.Fatalf("tally %d attempted %d failed %d succeeded", tl.attempted, tl.failed, tl.succeeded())
	}
	if tl.failureShare() != 0.01 {
		t.Errorf("failure share %v, want 0.01", tl.failureShare())
	}
	if !errors.Is(tl.firstErr, boom) {
		t.Errorf("first error %v", tl.firstErr)
	}
	if len(tl.latMs) != 100 {
		t.Fatalf("%d latency samples, want 100", len(tl.latMs))
	}
	p90, err := percentile(tl.latMs, 0.9)
	if err != nil || p90 != 90 {
		t.Errorf("p90 = %v, %v; want 90 (the failure ranks last)", p90, err)
	}
	var empty opTally
	if empty.failureShare() != 0 {
		t.Error("empty tally has a failure share")
	}
}
