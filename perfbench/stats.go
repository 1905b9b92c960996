package main

import (
	"fmt"
	"math"
	"slices"
)

// samples is a set of exact per-op timings in nanoseconds. Percentiles
// come from the sorted samples themselves, never from log2 buckets,
// whose 2× width would hide a 10% change.
type samples []int64

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted s, or 0 for no samples.
func (s samples) percentile(p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// supported is the highest percentile that still has at least ten
// samples beyond it.
func (s samples) supported() float64 {
	if len(s) <= 10 {
		return 0
	}
	return 100 * (1 - 10/float64(len(s)))
}

func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// timing renders one latency set for the report: sample count, p50,
// p99, and the highest percentile the count supports.
func (s samples) timing() string {
	if len(s) == 0 {
		return "no samples"
	}
	top := s.supported()
	return fmt.Sprintf("n=%d p50=%.1fus p99=%.1fus p%.4g=%.1fus", len(s),
		us(s.percentile(50)), us(s.percentile(99)), top, us(s.percentile(top)))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
