package strategy

import (
	"sort"

	"newmad/internal/core"
)

// SplitMode is a stripping row's weight source: how each rail's share
// of a body is sized.
type SplitMode int

const (
	// SplitRatio weighs rails by profiled bandwidth, so all shares
	// finish together (the paper's adaptive stripping, "hetero-splitted"
	// in Figure 7).
	SplitRatio SplitMode = iota
	// SplitIso gives every rail an equal share ("iso-splitted" in
	// Figure 7, the strawman the ratio is compared against).
	SplitIso
	// splitObserved weighs rails by the bandwidth their online
	// estimators observe them deliver, re-fit as completions arrive. A
	// rail with no observations yet answers with its optimistic profile
	// prior, so it is offered work instead of being starved of the
	// samples it would need to earn a share.
	splitObserved
)

// weight is rail rr's split weight under mode m (never below 1).
func (m SplitMode) weight(rr *core.Rail) float64 {
	w := 1.0
	switch m {
	case SplitRatio:
		w = rr.Profile().Bandwidth
	case splitObserved:
		w = rr.Profile().Bandwidth
		if est := rr.Estimator(); est != nil {
			w = est.Bandwidth()
		}
	}
	if w <= 0 {
		w = 1
	}
	return w
}

// bite serves rail r its weighted share of the bytes remaining in the
// first granted body, floored at MinChunk, taking everything when the
// tail would drop below MinChunk.
func (s *scheduler) bite(b *core.Backlog, r *core.Rail) *core.Packet {
	var wSum, wR float64
	for _, rr := range b.Rails() {
		if rr.Down() {
			continue
		}
		w := s.weights.weight(rr)
		wSum += w
		if rr == r {
			wR = w
		}
	}
	if wR <= 0 {
		// r is down: it takes nothing and the body stays queued for the
		// surviving rails. ChunkFrom treats 0 as "up to MaxPayload", so a
		// zero bite must not be passed through.
		return nil
	}
	u := b.Body(0)
	rem := u.Remaining()
	n := max(int(float64(rem)*wR/wSum), b.MinChunk())
	if rem-n < b.MinChunk() {
		n = rem
	}
	if n <= 0 {
		return nil
	}
	return b.ChunkFrom(u, n)
}

// railShare pins one byte range of a body to one rail.
type railShare struct {
	rail     int
	from, to int
	taken    bool
}

// fromPlan serves rail r its pinned share of the first granted body
// that has one, or mops up orphaned ranges greedily.
func (s *scheduler) fromPlan(b *core.Backlog, r *core.Rail) *core.Packet {
	for bi := 0; bi < b.BodyCount(); bi++ {
		u := b.Body(bi)
		s.mu.Lock()
		shares, ok := s.plans[u]
		s.mu.Unlock()
		if !ok {
			shares = s.makePlan(b, u, r)
			s.mu.Lock()
			s.plans[u] = shares
			s.mu.Unlock()
		}
		open := 0
		for j := range shares {
			e := &shares[j]
			if e.taken {
				continue
			}
			if railDown(b, e.rail) {
				// Orphaned share: leave its range in the spans for the
				// greedy mop-up below.
				e.taken = true
				continue
			}
			if e.rail == r.Index() {
				e.taken = true
				if planDone(shares) {
					s.Discard(b, u)
				}
				return b.ChunkSpan(u, e.from, e.to)
			}
			open++
		}
		if open > 0 {
			continue // other rails still owe their shares of this body
		}
		s.Discard(b, u)
		if from, to, ok := u.FirstSpan(); ok {
			// Orphaned ranges after failures: greedy, MinChunk-bounded.
			n := to - from
			if n > 2*b.MinChunk() {
				n = max(n/2, b.MinChunk())
			}
			return b.ChunkSpan(u, from, from+min(n, core.MaxPayload))
		}
	}
	return nil
}

func planDone(shares []railShare) bool {
	for _, e := range shares {
		if !e.taken {
			return false
		}
	}
	return true
}

func railDown(b *core.Backlog, idx int) bool {
	rails := b.Rails()
	return idx >= len(rails) || rails[idx].Down()
}

// makePlan splits a freshly granted body into pinned per-rail shares.
// requester is the rail whose Schedule call triggered the plan; it is
// guaranteed a share so the body can always start moving immediately.
func (s *scheduler) makePlan(b *core.Backlog, u *core.Unit, requester *core.Rail) []railShare {
	from, to, ok := u.FirstSpan()
	if !ok {
		return nil
	}
	rem := to - from
	type cand struct {
		rail int
		w    float64
	}
	var cands []cand
	var wSum float64
	for _, rr := range b.Rails() {
		if rr.Down() {
			continue
		}
		w := s.weights.weight(rr)
		cands = append(cands, cand{rail: rr.Index(), w: w})
		wSum += w
	}
	if len(cands) == 0 || rem <= 0 {
		return appendCut(nil, requester.Index(), from, to)
	}
	// Every participating rail gets at least MinChunk, so a body only
	// spreads over as many rails as MinChunk-sized shares fit; the
	// highest-weight rails are kept when it does not fit all.
	if maxRails := rem / b.MinChunk(); maxRails < len(cands) {
		if maxRails < 1 {
			return appendCut(nil, requester.Index(), from, to)
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].w > cands[j].w })
		cands = cands[:maxRails]
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].rail < cands[j].rail })
		wSum = 0
		for _, c := range cands {
			wSum += c.w
		}
	}
	// MinChunk floor for everyone, the rest split by weight.
	extra := rem - len(cands)*b.MinChunk()
	sizes := make([]int, len(cands))
	assigned := 0
	for i, c := range cands {
		sizes[i] = b.MinChunk() + int(float64(extra)*c.w/wSum)
		assigned += sizes[i]
	}
	// Rounding leftovers go to the largest share.
	if rest := rem - assigned; rest != 0 {
		big := 0
		for i := range sizes {
			if sizes[i] > sizes[big] {
				big = i
			}
		}
		sizes[big] += rest
	}
	shares := make([]railShare, 0, len(cands))
	cursor := from
	for i, c := range cands {
		shares = appendCut(shares, c.rail, cursor, cursor+sizes[i])
		cursor += sizes[i]
	}
	return shares
}

// appendCut appends rail's share [from, to) to shares, cut into
// consecutive pieces of at most MaxPayload that the rail takes in order.
func appendCut(shares []railShare, rail, from, to int) []railShare {
	for ; to-from > core.MaxPayload; from += core.MaxPayload {
		shares = append(shares, railShare{rail: rail, from: from, to: from + core.MaxPayload})
	}
	return append(shares, railShare{rail: rail, from: from, to: to})
}
