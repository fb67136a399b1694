package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p90 over fewer than 100 samples would rest on a handful of values.
const minTail = 10

// tailSupported reports whether n samples leave at least minTail samples
// beyond the nearest-rank q-quantile.
func tailSupported(n int, q float64) bool {
	if n <= 0 {
		return false
	}
	return n-nearestRank(n, q) >= minTail
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// fails when xs leaves fewer than minTail samples beyond that rank, so a
// run too short for its percentile errors out instead of reporting one.
func percentile(xs []float64, q float64) (float64, error) {
	if !tailSupported(len(xs), q) {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d samples",
			100*q, minTail, len(xs))
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), q)-1], nil
}

// median returns the middle of xs, averaging the two middle values when
// len(xs) is even; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// rule of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match that tool's.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// opTally accounts a phase's operations. A failed op stays in the
// denominator of every share and counts as an infinitely slow sample, so
// failures can only push latency percentiles up, never hide.
type opTally struct {
	attempted, failed int
	latMs             []float64
	firstErr          error
}

func (t *opTally) add(latMs float64, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		latMs = math.Inf(1)
	}
	t.latMs = append(t.latMs, latMs)
}

func (t *opTally) succeeded() int { return t.attempted - t.failed }

// failureShare is failed over attempted; 0 for an empty tally.
func (t *opTally) failureShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
