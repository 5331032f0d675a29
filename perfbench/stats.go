package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is one timed call: [start, end) in nanoseconds since the
// benchmark's epoch.
type interval struct{ start, end int64 }

// unionNanos is the total length covered by the intervals, counting time
// where several overlap (parallel probes) once. It sorts ivs in place.
func unionNanos(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// digest identifies a set of mapping SQL strings independently of their
// order: the count plus the sum and xor of each string's FNV-1a hash. It
// allocates nothing, so checking every timed round does not disturb the
// allocation metric.
type digest struct {
	n        int
	sum, xor uint64
}

func (d *digest) add(s string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	d.n++
	d.sum += h
	d.xor ^= h
}
