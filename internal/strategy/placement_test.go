package strategy_test

// Predictive eager placement, as named steps over one evolving gate (the
// step-table style of gothird's memcore tests): each step sends through
// the engine, so post advances the rails' predicted drain times exactly
// as in a run, and asserts which rail carried the message.

import (
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// manualClock is an engine clock that moves only when a step says so.
type manualClock struct{ now int64 }

func (c *manualClock) Now() int64                            { return c.now }
func (c *manualClock) Charge(int64)                          {}
func (c *manualClock) Memcpy(int)                            {}
func (c *manualClock) AfterFunc(int64, func()) (stop func()) { return func() {} }

// farProf is a rail slower to reach than quad but faster on the wire, so
// quad wins every small segment while its wire is drained and loses one
// above farProf's PIOMax once its wire is 53 µs or more behind.
func farProf() core.Profile {
	return core.Profile{Name: "far", Latency: 20 * time.Microsecond, Bandwidth: 1200e6, EagerMax: 32 << 10, PIOMax: 8 << 10}
}

// placement is the state the steps evolve: a gate whose rail 0 is far
// and rail 1 quad (the lowest-latency rail), over memdrv, which reports
// every send complete at once, so both rails are idle between steps.
type placement struct {
	clock *manualClock
	eng   *core.Engine
	gate  *core.Gate
	peer  *core.Gate
	rails []*core.Rail
	tag   uint32
}

func newPlacement(t *testing.T, strat string) *placement {
	t.Helper()
	st := &placement{clock: &manualClock{}}
	st.eng = core.New(core.Config{Strategy: strategy.Must(strat), Clock: st.clock})
	peerEng := core.New(core.Config{Strategy: strategy.Must("fifo")})
	t.Cleanup(func() {
		st.eng.Close()
		peerEng.Close()
	})
	st.gate = st.eng.NewGate("peer")
	st.peer = peerEng.NewGate("self")
	for _, p := range []core.Profile{farProf(), quadProf()} {
		st.addRail(p)
	}
	return st
}

func (st *placement) addRail(p core.Profile) *core.Rail {
	a, b := memdrv.Pair(p.Name, p)
	st.peer.AddRail(b)
	r := st.gate.AddRail(a)
	st.rails = append(st.rails, r)
	return r
}

// send sends one n-byte message and returns the rail that carried it.
func (st *placement) send(t *testing.T, n int) *core.Rail {
	t.Helper()
	before := make([]uint64, len(st.rails))
	for i, r := range st.rails {
		before[i], _ = r.Stats()
	}
	st.tag++
	if err := st.eng.Wait(st.gate.Isend(st.tag, make([]byte, n))); err != nil {
		t.Fatalf("send %d B: %v", n, err)
	}
	var on *core.Rail
	for i, r := range st.rails {
		if pkts, _ := r.Stats(); pkts != before[i] {
			if on != nil {
				t.Fatalf("a %d B message left on %v and %v", n, on, r)
			}
			on = r
		}
	}
	if on == nil {
		t.Fatalf("a %d B message left on no rail", n)
	}
	return on
}

func (st *placement) expectOn(t *testing.T, n int, want *core.Rail) {
	t.Helper()
	if got := st.send(t, n); got != want {
		t.Fatalf("a %d B message left on %v, want %v", n, got, want)
	}
}

// expectDrained checks that r predicts nothing queued ahead of a 12 KiB
// packet.
func (st *placement) expectDrained(t *testing.T, r *core.Rail) {
	t.Helper()
	n, p := 12<<10, r.Profile()
	want := st.clock.now + int64(p.Latency) + int64(float64(n)*1e9/p.Bandwidth)
	if got := r.ETA(n); got != want {
		t.Fatalf("%v ETA = %d ns, want %d (drained)", r, got, want)
	}
}

type placementStep struct {
	name string
	run  func(t *testing.T, st *placement)
}

type placementCase struct {
	name, strat string
	steps       []placementStep
}

// stripSteps runs a stripping row through the rule's cases in order.
func stripSteps() []placementStep {
	return []placementStep{
		{"lone small segment leaves on the lowest-latency rail", func(t *testing.T, st *placement) {
			far, quad := st.rails[0], st.rails[1]
			if far.ETA(16<<10) <= quad.ETA(16<<10) {
				t.Fatal("fixture: far must lose a 16 KiB segment to a drained quad")
			}
			st.expectOn(t, 16<<10, quad)
		}},
		{"PIO-sized segments stay on the lowest-latency rail while it drains", func(t *testing.T, st *placement) {
			far, quad := st.rails[0], st.rails[1]
			for range 8 {
				st.expectOn(t, 8<<10, quad) // far's PIOMax, not above it
			}
			if far.ETA(8<<10) >= quad.ETA(8<<10) {
				t.Fatal("fixture: far should now win an 8 KiB segment on ETA alone")
			}
		}},
		{"idle slower rail takes a segment above its PIOMax", func(t *testing.T, st *placement) {
			st.expectOn(t, 12<<10, st.rails[0])
		}},
		{"the drained lowest-latency rail takes it back", func(t *testing.T, st *placement) {
			st.clock.now += int64(time.Millisecond)
			st.expectOn(t, 12<<10, st.rails[1])
		}},
		{"down rail is never consulted and forgets its backlog", func(t *testing.T, st *placement) {
			far, quad := st.rails[0], st.rails[1]
			for range 8 {
				st.expectOn(t, 8<<10, quad)
			}
			far.MarkDown()
			st.expectOn(t, 12<<10, quad)
			quad.MarkDown()
			st.expectDrained(t, quad)
			st.clock.now += int64(time.Millisecond)
			revived := st.addRail(farProf())
			st.expectOn(t, 12<<10, revived)
		}},
		{"revived rail starts drained", func(t *testing.T, st *placement) {
			revived := st.addRail(quadProf())
			st.expectDrained(t, revived)
			st.expectOn(t, 12<<10, revived)
		}},
	}
}

// fixedSteps runs a row that never reads the prediction: the loaded
// lowest-latency rail, or the pinned or first-asked one, keeps every
// message, exactly as before the prediction existed.
func fixedSteps(rail int) []placementStep {
	return []placementStep{
		{"placement ignores the predicted drain", func(t *testing.T, st *placement) {
			for _, n := range []int{16 << 10, 8 << 10, 8 << 10, 8 << 10, 8 << 10, 12 << 10, 12 << 10} {
				st.expectOn(t, n, st.rails[rail])
			}
		}},
	}
}

func TestPredictivePlacement(t *testing.T) {
	cases := []placementCase{
		{"split", "split", stripSteps()},
		{"split-iso", "split-iso", stripSteps()},
		{"split-dyn", "split-dyn", stripSteps()},
		{"split-dyn-adaptive", "split-dyn-adaptive", stripSteps()},
		{"aggreg stays pinned", "aggreg", fixedSteps(0)},
		{"balance goes to the first rail asked", "balance", fixedSteps(0)},
		{"aggrail keeps smalls on the lowest-latency rail", "aggrail", fixedSteps(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newPlacement(t, tc.strat)
			for _, step := range tc.steps {
				if !t.Run(step.name, func(t *testing.T) { step.run(t, st) }) {
					t.FailNow()
				}
			}
		})
	}
}
