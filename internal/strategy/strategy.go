// Package strategy provides the optimizing scheduler studied in the
// paper. The paper builds it one feature at a time (§3.1–§3.4); here
// each of its strategies is one row of a feature table, and a single
// Schedule serves every row:
//
//	name                pinned  aggregate  body   weights
//	fifo                rail 0  -          whole  -
//	aggreg              rail 0  yes        whole  -
//	balance             -       -          whole  -
//	aggrail             -       yes        whole  -
//	split               -       yes        plan   declared
//	split-iso           -       yes        plan   equal
//	split-dyn           -       yes        steal  declared
//	split-dyn-adaptive  -       yes        steal  observed
//	hedge               split-dyn-adaptive wrapped in Hedge
//
// Every row serves pending control packets (rendezvous CTS) first, on
// any rail. The columns:
//
//   - pinned: data leaves on one rail only — the single-network
//     baselines of Figures 2 and 3. The registry pins rail 0; NewFIFO
//     and NewAggreg take the rail index.
//   - aggregate: small segments that accumulated while the NIC was busy
//     leave as one packet (§3.1) on the small-message rail: the pinned
//     rail, or else the lowest-latency up rail (§3.3). On the stripping
//     rows another idle rail gathers them too when Rail.ETA predicts it
//     delivers the first one before the lowest-latency rail and that
//     segment is above the rail's PIOMax, so no PIO copy competes for
//     the host CPU. Chunks thus spill onto the other rails while the
//     lowest-latency rail's wire is backed up, and even a lone segment
//     leaves on a higher-bandwidth rail when it is large enough to
//     arrive there first. The records are gathered, not copied: the
//     driver reads them from the application buffers (one writev on
//     tcp). An aggregate is at most the rail's Profile.AggMax: the
//     engine's AggThreshold, unless the rail declares its own cap, as a
//     tcp rail declares its eager frame. A pinned row gathers every
//     segment that fits its rail's cap; the unpinned rows gather only
//     segments up to AggThreshold, so larger ones stay free for any idle
//     rail. A segment the rail does not gather leaves as a packet of its
//     own, overtaking smalls if need be. Without aggregation every
//     segment is its own packet, in order.
//   - body: how a granted rendezvous body leaves. whole: in one chunk
//     to whichever rail asks first (greedy balancing, §3.2). plan: split
//     once into pinned per-rail shares by weight, each at least MinChunk
//     so stripping never drops into the PIO regime (§3.4, Figure 7);
//     shares orphaned by a rail failure are mopped up greedily. steal:
//     every idle rail bites its weighted share of the bytes remaining,
//     floored at MinChunk — not in the paper; it adapts to competing
//     traffic and failures at the cost of a few more chunks. The
//     stripping rows (plan, steal) send every large segment through
//     rendezvous so that it can be stripped.
//   - weights: each rail's share of a stripped body (SplitMode):
//     declared profile bandwidth, equal, or the bandwidth the rail's
//     online estimator observes it deliver.
package strategy

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"newmad/internal/core"
)

// bodyPolicy is how a row serves granted rendezvous bodies.
type bodyPolicy uint8

const (
	whole bodyPolicy = iota // one chunk to the first rail that asks
	plan                    // pinned per-rail shares, orphans mopped up
	steal                   // each idle rail bites its share of the rest
)

// row is one scheduler of the feature table.
type row struct {
	name      string
	pinned    bool
	aggregate bool
	body      bodyPolicy
	weights   SplitMode
	// over names the row a Hedge wraps; a hedge row has no features of
	// its own.
	over string
}

// rows is the registry, in the order the paper develops the strategies.
var rows = []row{
	{name: "fifo", pinned: true},
	{name: "aggreg", pinned: true, aggregate: true},
	{name: "balance"},
	{name: "aggrail", aggregate: true},
	{name: "split", aggregate: true, body: plan, weights: SplitRatio},
	{name: "split-iso", aggregate: true, body: plan, weights: SplitIso},
	{name: "split-dyn", aggregate: true, body: steal, weights: SplitRatio},
	{name: "split-dyn-adaptive", aggregate: true, body: steal, weights: splitObserved},
	{name: "hedge", over: "split-dyn-adaptive"},
}

// New builds a strategy by its registry name (see the package doc).
func New(name string) (core.Strategy, error) {
	for _, r := range rows {
		if r.name != name {
			continue
		}
		if r.over != "" {
			return NewHedge(Must(r.over)), nil
		}
		s := &scheduler{row: r}
		if r.body == plan {
			s.plans = make(map[*core.Unit][]railShare)
		}
		return s, nil
	}
	return nil, fmt.Errorf("strategy: unknown %q (have %v)", name, Names())
}

// Must is New for a name known to be registered; it panics otherwise.
func Must(name string) core.Strategy {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.name
	}
	sort.Strings(names)
	return names
}

// NewFIFO returns the fifo row pinned to the given rail.
func NewFIFO(rail int) core.Strategy { return pinnedTo("fifo", rail) }

// NewAggreg returns the aggreg row pinned to the given rail.
func NewAggreg(rail int) core.Strategy { return pinnedTo("aggreg", rail) }

// NewSplit returns the split row (SplitRatio) or the split-iso row
// (SplitIso).
func NewSplit(mode SplitMode) core.Strategy {
	if mode == SplitIso {
		return Must("split-iso")
	}
	return Must("split")
}

func pinnedTo(name string, rail int) core.Strategy {
	s := Must(name).(*scheduler)
	s.pin = rail
	return s
}

// scheduler serves every row of the table.
type scheduler struct {
	row
	pin int // the rail a pinned row sends data on
	// mu guards plans: one scheduler serves every gate of an engine, and
	// gates schedule concurrently from their own progress domains. A
	// plan's entries are only mutated by the owning unit's gate, so the
	// map is the sole cross-gate state.
	mu    sync.Mutex
	plans map[*core.Unit][]railShare
}

// Name implements core.Strategy.
func (s *scheduler) Name() string { return s.name }

// Submit implements core.Strategy.
func (*scheduler) Submit(b *core.Backlog, u *core.Unit) { b.PushSeg(u) }

// Schedule implements core.Strategy.
func (s *scheduler) Schedule(b *core.Backlog, r *core.Rail) *core.Packet {
	if p := b.PopCtrl(); p != nil {
		return p
	}
	if s.pinned && r.Index() != s.pin {
		return nil
	}
	if b.BodyCount() > 0 {
		switch s.body {
		case whole:
			return b.ChunkFrom(b.Body(0), 0)
		case steal:
			return s.bite(b, r)
		case plan:
			if p := s.fromPlan(b, r); p != nil {
				return p
			}
		}
	}
	var u *core.Unit
	if s.aggregate {
		if s.gathersOn(b, r) {
			if units := s.gatherSmalls(b, r); len(units) > 0 {
				return b.MakeEager(units...)
			}
		}
		u = s.firstSolo(b, r)
	} else {
		u = b.PopSeg()
	}
	switch {
	case u == nil:
		return nil
	case s.body != whole && !small(b, u), !core.EagerOK(u, r):
		return b.StartRdv(u)
	default:
		return b.MakeEager(u)
	}
}

// Discard implements core.Discarder: the engine abandoned the body
// (gate death), so its plan must not leak.
func (s *scheduler) Discard(b *core.Backlog, u *core.Unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.plans, u)
}

// small reports whether a unit is in the aggregation regime.
func small(b *core.Backlog, u *core.Unit) bool { return u.Len() <= b.AggThreshold() }

// fastest returns the up rail with the lowest latency (ties to the lower
// index), or nil if every rail is down.
func fastest(b *core.Backlog) *core.Rail {
	var best *core.Rail
	var bestLat time.Duration
	for _, r := range b.Rails() {
		if r.Down() {
			continue
		}
		if best == nil || r.Profile().Latency < bestLat {
			best = r
			bestLat = r.Profile().Latency
		}
	}
	return best
}

// gathersOn reports whether rail r gathers pending small segments. The
// pinned rail and the lowest-latency up rail always do (§3.3). On a
// stripping row another idle rail does too when it is predicted to
// deliver the first segment it would gather before the lowest-latency
// rail could (that rail's wire is still draining earlier packets, or
// the segment is large enough for r's bandwidth to make up its
// latency), and the segment is above r's PIOMax, so r takes DMA work
// and no PIO copy competes for the host's CPU.
func (s *scheduler) gathersOn(b *core.Backlog, r *core.Rail) bool {
	if s.pinned {
		return true
	}
	f := fastest(b)
	if r == f {
		return true
	}
	if s.body == whole || f == nil {
		return false
	}
	for i := 0; i < b.SegCount(); i++ {
		if u := b.Seg(i); s.gatherable(b, r, u) {
			n := u.Len()
			return n > r.Profile().PIOMax && r.ETA(n) < f.ETA(n)
		}
	}
	return false
}

// gatherable reports whether rail r may carry u in an aggregate: u fits
// the rail's AggMax and, unless the row is pinned, AggThreshold. A
// pinned row sends everything on its one rail anyway; an unpinned row
// keeps larger segments for greedy balancing or, when it strips, for
// rendezvous.
func (s *scheduler) gatherable(b *core.Backlog, r *core.Rail, u *core.Unit) bool {
	return u.Len() <= b.AggMax(r) && (s.pinned || small(b, u))
}

// gatherSmalls pops the first segment gatherable on rail r and every
// further one that fits with it in one aggregated packet of at most the
// rail's AggMax payload bytes (record headers included). Other segments
// are skipped over, not disturbed — the paper allows reordering. Returns
// an empty slice if no gatherable segment is pending. The returned slice
// is the backlog's reusable scratch: valid until the next Schedule call
// on the same gate, which is fine because the caller hands it straight
// to MakeEager.
func (s *scheduler) gatherSmalls(b *core.Backlog, r *core.Rail) []*core.Unit {
	budget := b.AggMax(r)
	units := b.Scratch()
	total := 0
	i := 0
	for i < b.SegCount() {
		u := b.Seg(i)
		if !s.gatherable(b, r, u) {
			i++
			continue
		}
		need := u.Len()
		if len(units) > 0 {
			// Aggregating at all means every record pays a header.
			need += core.HeaderLen
			if len(units) == 1 {
				need += core.HeaderLen
			}
		}
		if len(units) > 0 && total+need > budget {
			break
		}
		units = append(units, b.TakeSeg(i))
		total += need
	}
	b.StoreScratch(units)
	return units
}

// firstSolo pops the first segment rail r does not gather, or nil. On
// the rail that gathers, that is every segment gatherSmalls left behind,
// so no segment is stranded between the two.
func (s *scheduler) firstSolo(b *core.Backlog, r *core.Rail) *core.Unit {
	for i := 0; i < b.SegCount(); i++ {
		if !s.gatherable(b, r, b.Seg(i)) {
			return b.TakeSeg(i)
		}
	}
	return nil
}

var (
	_ core.Strategy  = (*scheduler)(nil)
	_ core.Discarder = (*scheduler)(nil)
)
