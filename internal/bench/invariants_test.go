package bench

// Invariant tests: properties of the engine's scheduling discipline,
// checked from the trace of realistic simulated runs.

import (
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// tracedRun executes a mixed ping-pong and returns node A's trace.
func tracedRun(t *testing.T, strat func() core.Strategy) *trace.Collector {
	t.Helper()
	col := trace.New(0)
	p := NewPair(PairConfig{
		NICs:     bothRails(),
		Strategy: strat,
		Sample:   true,
		TraceA:   col.Hook(),
	})
	sizes := []int{64, 2048, 64 << 10, 2 << 20}
	p.SweepLatency(sizes, 2, Quality{Warmup: 1, Iters: 2, Verify: true})
	return col
}

// One packet in flight per rail: per rail, "post" and "sent"/"fail"
// events must strictly alternate.
func TestInvariantOnePacketPerRail(t *testing.T) {
	for _, name := range []string{"balance", "aggrail", "split", "split-dyn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			col := tracedRun(t, func() core.Strategy {
				s, err := strategy.New(name)
				if err != nil {
					t.Fatal(err)
				}
				return s
			})
			busy := map[int]bool{}
			for _, ev := range col.Events() {
				switch ev.Ev {
				case "post":
					if busy[ev.Rail] {
						t.Fatalf("double post on rail %d at %d", ev.Rail, ev.Now)
					}
					busy[ev.Rail] = true
				case "sent", "fail":
					if !busy[ev.Rail] {
						t.Fatalf("completion on idle rail %d at %d", ev.Rail, ev.Now)
					}
					busy[ev.Rail] = false
				}
			}
		})
	}
}

// Every RTS the engine posts is eventually followed by chunks covering
// exactly the announced bytes (no duplication, no loss) — checked via
// the per-rdv byte totals in posted chunk packets.
func TestInvariantRdvBytesConserved(t *testing.T) {
	col := tracedRun(t, func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) })
	rts := 0
	var rtsBytes, chunkBytes int
	for _, ev := range col.Events() {
		if ev.Ev != "post" {
			continue
		}
		switch ev.Kind {
		case core.KRTS:
			rts++
			rtsBytes += ev.Len // RTS carries no payload; Len is 0
		case core.KChunk:
			chunkBytes += ev.Len
		}
	}
	if rts == 0 {
		t.Fatal("no rendezvous in a sweep that includes 2 MB messages")
	}
	// 2-segment messages of 64K and 2M with rdvMin 16K: every segment
	// >16K goes rdv. Segments: 32K x2 (x3 iters), 1M x2 (x3 iters):
	// chunk bytes must equal those segment bytes exactly.
	want := 3*(2*(32<<10)) + 3*(2*(1<<20))
	if chunkBytes != want {
		t.Fatalf("chunk bytes %d, want %d (duplication or loss)", chunkBytes, want)
	}
	_ = rtsBytes
}
