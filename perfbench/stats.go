package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: p99 needs at least 1000 samples.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones an
// external checker computes from the same values. One sample is its
// own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		// Clamp j to 1..n-1 before taking delta, as Python does; for
		// tiny n that extrapolates past the data.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie beyond it; a percentile without that
// support is noise, and callers must gather more samples before
// reporting it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := rankOf(n, p)
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// samplesFor returns how many samples the p-th percentile (p < 100)
// needs for minBeyond of them to lie beyond it.
func samplesFor(p float64) int {
	n := minBeyond
	for n-rankOf(n, p) < minBeyond {
		n++
	}
	return n
}
