package core

import (
	"sort"
	"sync"
	"time"
)

// Estimator is a per-rail online model of observed send performance. It is
// fed from packet completion timestamps (post → sendComplete, in the
// engine clock's time base, so it is virtual-time-exact on the DES) and
// answers three questions strategies keep asking:
//
//   - Latency(): EWMA of small-packet completion time — rail selection.
//   - Bandwidth(): EWMA of large-packet throughput — chunk-split ratios.
//   - Quantile(q): windowed completion-time quantile — hedge stagger
//     deadlines (p50/p99-style tail digests).
//
// Until a rail has produced samples the estimator answers from an
// optimistic prior seeded from the rail's declared Profile, so a freshly
// added rail is offered work instead of being starved; the EWMA decay
// (alpha 0.25) then converges it onto reality within a few packets.
// Measured bandwidth is floored at a fraction of the prior so a rail that
// had one terrible draw cannot starve itself out of the samples it needs
// to recover.
//
// Writes arrive under the owning gate's progress domain; reads come from
// strategies (same domain) but also from selector re-fits and tooling on
// arbitrary goroutines, so a plain mutex guards the state.
type Estimator struct {
	mu sync.Mutex

	latPrior time.Duration // from Profile.Latency
	bwPrior  float64       // bytes/sec, from Profile.Bandwidth

	latEWMA float64 // ns, small packets
	bwEWMA  float64 // bytes/sec, large packets
	latN    uint64
	bwN     uint64

	// ring of recent completion durations (ns), all sizes, for quantiles.
	win  [estWindow]int64
	wn   int // valid entries
	wpos int // next write position
}

const (
	// estWindow is the quantile ring size: big enough for a stable p99
	// over steady traffic, small enough to forget a fault within ~one
	// window of packets.
	estWindow = 128
	// estAlpha is the EWMA smoothing factor.
	estAlpha = 0.25
	// estSmallMax: packets at or below feed the latency EWMA; above feed
	// the bandwidth EWMA.
	estSmallMax = 4096
	// estBwFloorDiv floors measured bandwidth at prior/estBwFloorDiv.
	estBwFloorDiv = 16
)

// NewEstimator returns an estimator seeded with the given prior. Zero or
// negative priors fall back to conservative defaults.
func NewEstimator(lat time.Duration, bw float64) *Estimator {
	if lat <= 0 {
		lat = 10 * time.Microsecond
	}
	if bw <= 0 {
		bw = 1 << 30 // 1 GiB/s
	}
	return &Estimator{latPrior: lat, bwPrior: bw}
}

// SetPrior replaces the fallback model (e.g. after SetProfile installs
// sampled figures). Accumulated samples are kept.
func (e *Estimator) SetPrior(lat time.Duration, bw float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if lat > 0 {
		e.latPrior = lat
	}
	if bw > 0 {
		e.bwPrior = bw
	}
}

// Observe records one completed packet of the given size that took dur
// nanoseconds from post to send completion.
func (e *Estimator) Observe(bytes int, durNS int64) {
	if durNS <= 0 {
		durNS = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if bytes <= estSmallMax {
		if e.latN == 0 {
			e.latEWMA = float64(durNS)
		} else {
			e.latEWMA = estAlpha*float64(durNS) + (1-estAlpha)*e.latEWMA
		}
		e.latN++
	} else {
		bw := float64(bytes) / float64(durNS) * 1e9
		if e.bwN == 0 {
			e.bwEWMA = bw
		} else {
			e.bwEWMA = estAlpha*bw + (1-estAlpha)*e.bwEWMA
		}
		e.bwN++
	}
	e.win[e.wpos] = durNS
	e.wpos = (e.wpos + 1) % estWindow
	if e.wn < estWindow {
		e.wn++
	}
}

// Latency returns the estimated per-packet latency: the small-packet EWMA
// once samples exist, the profile prior before that.
func (e *Estimator) Latency() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.latN == 0 {
		return e.latPrior
	}
	return time.Duration(e.latEWMA)
}

// Bandwidth returns the estimated throughput in bytes/sec: the
// large-packet EWMA once samples exist (floored at a fraction of the
// prior so one bad draw cannot starve the rail), the profile prior before
// that. The no-sample prior is the optimistic seed that keeps freshly
// added rails in the split rotation.
func (e *Estimator) Bandwidth() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bwN == 0 {
		return e.bwPrior
	}
	if floor := e.bwPrior / estBwFloorDiv; e.bwEWMA < floor {
		return floor
	}
	return e.bwEWMA
}

// Quantile returns the q-quantile (0 < q <= 1, nearest-rank) of recent
// completion durations. With no samples yet it answers a small multiple
// of the prior latency, which is the right optimistic stagger for a rail
// nothing is known about.
func (e *Estimator) Quantile(q float64) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wn == 0 {
		return 2 * e.latPrior
	}
	var buf [estWindow]int64
	xs := buf[:e.wn]
	copy(xs, e.win[:e.wn])
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	if q <= 0 {
		q = 0.5
	}
	if q > 1 {
		q = 1
	}
	idx := int(q*float64(e.wn)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= e.wn {
		idx = e.wn - 1
	}
	return time.Duration(xs[idx])
}
