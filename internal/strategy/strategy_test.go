package strategy_test

import (
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// fixture builds a gate whose rails have the given profiles, returning
// the backlog and rails so tests can drive Submit/Schedule by hand.
func fixture(t *testing.T, strat core.Strategy, profiles ...core.Profile) (*core.Backlog, []*core.Rail) {
	t.Helper()
	eng := core.New(core.Config{Strategy: strat})
	g := eng.NewGate("peer")
	for _, p := range profiles {
		a, _ := memdrv.Pair(p.Name, p)
		g.AddRail(a)
	}
	return g.Backlog(), g.Rails()
}

func myriProf() core.Profile {
	return core.Profile{Name: "myri", Latency: 2800 * time.Nanosecond, Bandwidth: 1200e6, EagerMax: 32 << 10, PIOMax: 8 << 10}
}

func quadProf() core.Profile {
	return core.Profile{Name: "quad", Latency: 1700 * time.Nanosecond, Bandwidth: 850e6, EagerMax: 16 << 10, PIOMax: 4 << 10}
}

func seg(n int, msg uint64) *core.Unit {
	return &core.Unit{Hdr: core.Header{Kind: core.KData, Tag: 1, MsgID: msg, MsgSegs: 1,
		MsgLen: uint64(n), SegLen: uint64(n)}, Data: make([]byte, n)}
}

func TestFIFOPinsToRail(t *testing.T) {
	s := strategy.NewFIFO(0)
	b, rails := fixture(t, s, myriProf(), quadProf())
	s.Submit(b, seg(100, 0))
	if p := s.Schedule(b, rails[1]); p != nil {
		t.Fatalf("FIFO scheduled %v on non-pinned rail", p)
	}
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KData {
		t.Fatalf("FIFO did not schedule on pinned rail: %v", p)
	}
	if s.Schedule(b, rails[0]) != nil {
		t.Fatal("FIFO scheduled from empty backlog")
	}
}

func TestFIFONeverAggregates(t *testing.T) {
	s := strategy.NewFIFO(0)
	b, rails := fixture(t, s, myriProf())
	for i := 0; i < 3; i++ {
		s.Submit(b, seg(100, uint64(i)))
	}
	for i := 0; i < 3; i++ {
		p := s.Schedule(b, rails[0])
		if p == nil || p.Hdr.Agg != 0 {
			t.Fatalf("packet %d: %v", i, p)
		}
	}
}

func TestFIFOLargeGoesRendezvous(t *testing.T) {
	s := strategy.NewFIFO(0)
	b, rails := fixture(t, s, myriProf())
	s.Submit(b, seg(64<<10, 0)) // > 32K eager max
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("large segment not rendezvous: %v", p)
	}
}

func TestFIFOServesControlOnAnyRail(t *testing.T) {
	s := strategy.NewFIFO(0)
	b, rails := fixture(t, s, myriProf(), quadProf())
	cts := &core.Packet{Hdr: core.Header{Kind: core.KCTS, RdvID: 1}}
	b.PushCtrl(cts)
	if p := s.Schedule(b, rails[1]); p != cts {
		t.Fatal("control packet not served on non-pinned rail")
	}
}

func TestAggregAggregatesAccumulatedSmalls(t *testing.T) {
	s := strategy.NewAggreg(0)
	b, rails := fixture(t, s, myriProf())
	for i := 0; i < 4; i++ {
		s.Submit(b, seg(256, uint64(i)))
	}
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Agg != 4 {
		t.Fatalf("expected 4-way aggregate, got %v", p)
	}
	if b.SegCount() != 0 {
		t.Fatalf("segments left behind: %d", b.SegCount())
	}
}

func TestAggregRespectsThreshold(t *testing.T) {
	s := strategy.NewAggreg(0)
	b, rails := fixture(t, s, myriProf())
	// Two 10K segments: total 20K > 16K threshold, must not aggregate.
	s.Submit(b, seg(10<<10, 0))
	s.Submit(b, seg(10<<10, 1))
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Agg != 0 {
		t.Fatalf("aggregated past the threshold: %v", p)
	}
	if b.SegCount() != 1 {
		t.Fatalf("SegCount = %d, want 1", b.SegCount())
	}
}

func TestAggregSingleSmallNoCopy(t *testing.T) {
	s := strategy.NewAggreg(0)
	b, rails := fixture(t, s, myriProf())
	u := seg(256, 0)
	data := u.Data // MakeEager consumes (recycles) the unit itself
	s.Submit(b, u)
	p := s.Schedule(b, rails[0])
	if p.Hdr.Agg != 0 {
		t.Fatalf("lone segment was wrapped in an aggregate: %v", p)
	}
	if &p.Payload[0] != &data[0] {
		t.Fatal("lone segment copied")
	}
}

func TestAggregLargeBypassesAggregation(t *testing.T) {
	s := strategy.NewAggreg(0)
	b, rails := fixture(t, s, myriProf())
	s.Submit(b, seg(256, 0))
	s.Submit(b, seg(20<<10, 1)) // large, between threshold and eager max
	s.Submit(b, seg(256, 2))
	p1 := s.Schedule(b, rails[0])
	if p1.Hdr.Agg != 2 {
		t.Fatalf("smalls not gathered around the large: %v", p1)
	}
	p2 := s.Schedule(b, rails[0])
	if p2.Hdr.Agg != 0 || p2.Hdr.Kind != core.KData || len(p2.Payload) != 20<<10 {
		t.Fatalf("large segment mishandled: %v", p2)
	}
}

// tcpProf is a rail that declares its eager frame as its aggregation
// cap, as tcpdrv does.
func tcpProf(lat time.Duration) core.Profile {
	return core.Profile{Name: "tcp", Latency: lat, Bandwidth: 1200e6, EagerMax: 64 << 10,
		AggMax: 64<<10 - core.HeaderLen}
}

// TestAggregGathersUpToRailCap: a pinned row gathers segments above
// AggThreshold when its rail declares a larger cap.
func TestAggregGathersUpToRailCap(t *testing.T) {
	s := strategy.NewAggreg(0)
	b, rails := fixture(t, s, tcpProf(30*time.Microsecond))
	s.Submit(b, seg(20<<10, 0))
	s.Submit(b, seg(256, 1))
	s.Submit(b, seg(20<<10, 2))
	s.Submit(b, seg(30<<10, 3)) // does not fit beside the others
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Agg != 3 || p.Len() > 64<<10-core.HeaderLen {
		t.Fatalf("want a 3-way aggregate within the rail's cap, got %v", p)
	}
	if p = s.Schedule(b, rails[0]); p == nil || p.Hdr.Agg != 0 || p.Len() != 30<<10 {
		t.Fatalf("leftover segment mishandled: %v", p)
	}
}

// TestAggregCapBelowThresholdStrandsNothing: on a rail whose cap is
// below AggThreshold, a segment between the two is not gathered, so it
// must leave on its own — eagerly if it fits the eager frame, else by
// rendezvous — instead of waiting forever.
func TestAggregCapBelowThresholdStrandsNothing(t *testing.T) {
	for _, name := range []string{"aggreg", "aggrail"} {
		s := strategy.Must(name)
		prof := core.Profile{Name: "wan", Latency: time.Millisecond, Bandwidth: 1e6,
			EagerMax: 1 << 10, AggMax: 1<<10 - core.HeaderLen}
		b, rails := fixture(t, s, prof)
		s.Submit(b, seg(2<<10, 0))
		s.Submit(b, seg(1000, 1))
		if p := s.Schedule(b, rails[0]); p == nil || p.Hdr.Kind != core.KRTS {
			t.Fatalf("%s: 2 KiB segment should rendezvous: %v", name, p)
		}
		if p := s.Schedule(b, rails[0]); p == nil || p.Hdr.Kind != core.KData || p.Len() != 1000 {
			t.Fatalf("%s: 1000 B segment should go eagerly alone: %v", name, p)
		}
		if b.SegCount() != 0 {
			t.Fatalf("%s: %d segments stranded", name, b.SegCount())
		}
	}
}

// TestAggRailCappedRailsKeepLargeBalanced: on unpinned rows a rail's
// larger cap does not pull segments above AggThreshold onto the fastest
// rail; they stay free for any idle rail, as on the default cap.
func TestAggRailCappedRailsKeepLargeBalanced(t *testing.T) {
	s := strategy.Must("aggrail")
	b, rails := fixture(t, s, tcpProf(60*time.Microsecond), tcpProf(30*time.Microsecond))
	s.Submit(b, seg(512, 0))
	s.Submit(b, seg(20<<10, 1))
	s.Submit(b, seg(512, 2))
	p := s.Schedule(b, rails[1]) // fastest
	if p == nil || p.Hdr.Agg != 2 || p.Len() != 2*(512+core.HeaderLen) {
		t.Fatalf("fastest rail should gather only the smalls: %v", p)
	}
	p = s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KData || p.Len() != 20<<10 {
		t.Fatalf("slow rail should take the 20 KiB segment eagerly: %v", p)
	}
}

// TestAggregSmallsOnPinnedRail: a pinned row aggregates on its pinned
// rail even when another rail has lower latency, and the pin follows
// the constructor's rail index.
func TestAggregSmallsOnPinnedRail(t *testing.T) {
	for pin := 0; pin < 2; pin++ {
		s := strategy.NewAggreg(pin)
		b, rails := fixture(t, s, myriProf(), quadProf()) // quad is fastest
		s.Submit(b, seg(512, 0))
		s.Submit(b, seg(512, 1))
		if p := s.Schedule(b, rails[1-pin]); p != nil {
			t.Fatalf("pin %d: data on the other rail: %v", pin, p)
		}
		if p := s.Schedule(b, rails[pin]); p == nil || p.Hdr.Agg != 2 {
			t.Fatalf("pin %d: smalls not aggregated on the pinned rail: %v", pin, p)
		}
	}
}

func TestBalanceGreedyAnyRail(t *testing.T) {
	s := strategy.Must("balance")
	b, rails := fixture(t, s, myriProf(), quadProf())
	s.Submit(b, seg(4096, 0))
	s.Submit(b, seg(4096, 1))
	p0 := s.Schedule(b, rails[0])
	p1 := s.Schedule(b, rails[1])
	if p0 == nil || p1 == nil {
		t.Fatal("balance did not use both rails")
	}
	if p0.Hdr.MsgID != 0 || p1.Hdr.MsgID != 1 {
		t.Fatal("balance reordered FIFO segments")
	}
}

func TestBalanceRdvDependsOnRail(t *testing.T) {
	s := strategy.Must("balance")
	b, rails := fixture(t, s, myriProf(), quadProf())
	// 20K: eager for myri (32K), rendezvous for quadrics (16K).
	s.Submit(b, seg(20<<10, 0))
	p := s.Schedule(b, rails[1])
	if p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("20K on quadrics should rendezvous: %v", p)
	}
	s.Submit(b, seg(20<<10, 1))
	p = s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KData {
		t.Fatalf("20K on myri should go eagerly: %v", p)
	}
}

func TestAggRailSmallsOnlyOnFastest(t *testing.T) {
	s := strategy.Must("aggrail")
	b, rails := fixture(t, s, myriProf(), quadProf()) // quad has lower latency
	s.Submit(b, seg(512, 0))
	s.Submit(b, seg(512, 1))
	if p := s.Schedule(b, rails[0]); p != nil {
		t.Fatalf("smalls scheduled on the slow rail: %v", p)
	}
	p := s.Schedule(b, rails[1])
	if p == nil || p.Hdr.Agg != 2 {
		t.Fatalf("fastest rail should carry the aggregate: %v", p)
	}
}

func TestAggRailLargeBalancedToAnyRail(t *testing.T) {
	s := strategy.Must("aggrail")
	b, rails := fixture(t, s, myriProf(), quadProf())
	s.Submit(b, seg(512, 0))    // small: reserved for quad
	s.Submit(b, seg(64<<10, 1)) // large: anyone
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("slow rail should have taken the large segment out of order: %v", p)
	}
	p = s.Schedule(b, rails[1])
	if p == nil || p.Hdr.Agg != 0 || len(p.Payload) != 512 {
		t.Fatalf("fastest rail should take the small: %v", p)
	}
}

func TestSplitPlansByBandwidthRatio(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 2 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	rts := s.Schedule(b, rails[0])
	if rts == nil || rts.Hdr.Kind != core.KRTS {
		t.Fatalf("large segment did not rendezvous: %v", rts)
	}
	b.Grant(u)
	c0 := s.Schedule(b, rails[0])
	c1 := s.Schedule(b, rails[1])
	if c0 == nil || c1 == nil || c0.Hdr.Kind != core.KChunk || c1.Hdr.Kind != core.KChunk {
		t.Fatalf("chunks missing: %v %v", c0, c1)
	}
	got := float64(len(c0.Payload)) / float64(n)
	want := 1200.0 / 2050.0
	// MinChunk floors pull the ratio slightly toward the middle.
	if got < want-0.06 || got > want+0.06 {
		t.Fatalf("myri share = %.3f, want ~%.3f", got, want)
	}
	if len(c0.Payload)+len(c1.Payload) != n {
		t.Fatalf("shares don't cover the body: %d + %d != %d", len(c0.Payload), len(c1.Payload), n)
	}
	if u.Remaining() != 0 {
		t.Fatalf("Remaining = %d", u.Remaining())
	}
}

func TestSplitIsoPlansEqualShares(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitIso)
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	c0 := s.Schedule(b, rails[0])
	c1 := s.Schedule(b, rails[1])
	if len(c0.Payload) != len(c1.Payload) {
		t.Fatalf("iso shares unequal: %d vs %d", len(c0.Payload), len(c1.Payload))
	}
}

func TestSplitSharesStayAboveMinChunk(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 33 << 10 // barely above 2*MinChunk
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0])
	b.Grant(u)
	c0 := s.Schedule(b, rails[0])
	c1 := s.Schedule(b, rails[1])
	if len(c0.Payload) < b.MinChunk() || len(c1.Payload) < b.MinChunk() {
		t.Fatalf("share below MinChunk: %d / %d", len(c0.Payload), len(c1.Payload))
	}
}

func TestSplitTooSmallToSplitGoesWhole(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 20 << 10 // > rdvMin (16K) but < 2*MinChunk: single chunk
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0])
	b.Grant(u)
	c0 := s.Schedule(b, rails[0])
	if len(c0.Payload) != n {
		t.Fatalf("small body split anyway: %d of %d", len(c0.Payload), n)
	}
	if p := s.Schedule(b, rails[1]); p != nil {
		t.Fatalf("second rail got a share of an unsplittable body: %v", p)
	}
}

func TestSplitForcesRdvAboveThreshold(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	// 20K is eager-able on myri (32K) but split forces rendezvous so it
	// can be stripped.
	s.Submit(b, seg(20<<10, 0))
	p := s.Schedule(b, rails[0])
	if p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("split did not force rendezvous: %v", p)
	}
}

func TestSplitSmallsStillAggregateOnFastest(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	s.Submit(b, seg(128, 0))
	s.Submit(b, seg(128, 1))
	if p := s.Schedule(b, rails[0]); p != nil {
		t.Fatalf("smalls on slow rail: %v", p)
	}
	p := s.Schedule(b, rails[1])
	if p == nil || p.Hdr.Agg != 2 {
		t.Fatalf("smalls not aggregated on fastest: %v", p)
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]core.Strategy{
		"fifo":      strategy.NewFIFO(0),
		"aggreg":    strategy.NewAggreg(1),
		"split":     strategy.NewSplit(strategy.SplitRatio),
		"split-iso": strategy.NewSplit(strategy.SplitIso),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
	h, ok := strategy.Must("hedge").(*strategy.Hedge)
	if !ok || h.Inner().Name() != "split-dyn-adaptive" {
		t.Errorf("hedge does not wrap split-dyn-adaptive: %T", strategy.Must("hedge"))
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range strategy.Names() {
		s, err := strategy.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := strategy.New("bogus"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
