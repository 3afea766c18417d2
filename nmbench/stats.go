package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie strictly beyond the highest
// percentile a run reports. With fewer, "p90" is one of the last few
// samples and measures the neighbours rather than the program.
const minTail = 10

// percentiles returns the nearest-rank percentiles qs (each in (0,1)) of
// samples, which it sorts in place. It refuses when the highest q would
// have fewer than minTail samples beyond it.
func percentiles(samples []float64, qs ...float64) ([]float64, error) {
	n := len(samples)
	if n == 0 {
		return nil, fmt.Errorf("no samples")
	}
	sort.Float64s(samples)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q <= 0 || q >= 1 {
			return nil, fmt.Errorf("percentile %v out of (0,1)", q)
		}
		rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
		if beyond := n - rank; beyond < minTail {
			return nil, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
		}
		out[i] = samples[rank-1]
	}
	return out, nil
}

// minSamplesFor is the smallest sample count for which percentiles
// accepts q.
func minSamplesFor(q float64) int {
	for n := minTail + 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minTail {
			return n
		}
	}
}

// median returns the median of xs without modifying it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, returning 0 for a zero denominator rather than ±Inf so
// a metric for an unused layer reads as absent.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pairedRatio is the median over rounds of engine[i]/raw[i], each a
// per-message time from adjacent rounds, so drift of the host between
// rounds cancels between numerator and denominator.
func pairedRatio(engine, raw []float64) float64 {
	n := len(engine)
	if len(raw) < n {
		n = len(raw)
	}
	rs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if raw[i] > 0 {
			rs = append(rs, engine[i]/raw[i])
		}
	}
	return median(rs)
}

// reservoirSize bounds the latency samples a run keeps: percentiles come
// from a uniform random subset of this size, so a run's memory (and its
// rss_mb) does not grow with its message rate.
const reservoirSize = 1 << 16

// reservoir keeps a uniform sample of everything added (Algorithm R)
// with a seeded generator, so a run's subset is reproducible.
type reservoir struct {
	n   int64 // samples offered
	xs  []float64
	rng uint64
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{xs: make([]float64, 0, reservoirSize), rng: uint64(seed)}
}

func (r *reservoir) addAll(xs []float64) {
	for _, x := range xs {
		r.n++
		if len(r.xs) < reservoirSize {
			r.xs = append(r.xs, x)
			continue
		}
		r.rng++
		if j := mix(r.rng) % uint64(r.n); j < reservoirSize {
			r.xs[j] = x
		}
	}
}
