package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than as the maximum.
const minBeyondTail = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of samples by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. samples must be sorted ascending and non-empty.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the zero-based index nearestRank reads.
func rankIndex(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// tailPercentile is nearestRank for a tail percentile that is reported as a
// latency: it fails unless at least minBeyondTail samples lie above the
// percentile's rank.
func tailPercentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if beyond := n - 1 - rankIndex(n, p); beyond < minBeyondTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyondTail)
	}
	return nearestRank(sorted, p), nil
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
