package strategy_test

// Rail-flap regressions for the stripping strategies: a rail that dies
// with a granted body mid-transfer must never be handed more bytes, and
// the surviving rails must drain everything the dead rail left behind.
// The split-dyn bite used to return the ENTIRE remainder for a downed
// rail (zero live weight fell through to "take it all"), handing the
// whole body to a rail that could no longer send it.

import (
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

func TestSplitDynDownedRailTakesNothing(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	rails[0].MarkDown()
	if p := s.Schedule(b, rails[0]); p != nil {
		t.Fatalf("downed rail was handed %d bytes of the body", len(p.Payload))
	}
	if u.Remaining() != n {
		t.Fatalf("downed rail consumed the body: %d of %d left", u.Remaining(), n)
	}
	// The survivor drains everything.
	total := 0
	for i := 0; i < 1000 && b.BodyCount() > 0; i++ {
		p := s.Schedule(b, rails[1])
		if p == nil {
			t.Fatalf("survivor stalled with %d bytes remaining", u.Remaining())
		}
		total += len(p.Payload)
	}
	if total != n || u.Remaining() != 0 {
		t.Fatalf("survivor drained %d of %d (%d remaining)", total, n, u.Remaining())
	}
}

func TestSplitDynFlapMidTransfer(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	first := s.Schedule(b, rails[0]) // one bite in flight when the rail dies
	if first == nil || first.Hdr.Kind != core.KChunk {
		t.Fatalf("no first chunk: %v", first)
	}
	rails[0].MarkDown()
	if p := s.Schedule(b, rails[0]); p != nil {
		t.Fatalf("dead rail kept eating: %d bytes", len(p.Payload))
	}
	total := len(first.Payload)
	for i := 0; i < 1000 && b.BodyCount() > 0; i++ {
		p := s.Schedule(b, rails[1])
		if p == nil {
			t.Fatalf("survivor stalled with %d bytes remaining", u.Remaining())
		}
		total += len(p.Payload)
	}
	if total != n || u.Remaining() != 0 {
		t.Fatalf("flapped transfer scheduled %d of %d", total, n)
	}
}

func TestSplitDynAllRailsDownSchedulesNothing(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	// Downing the last rail fails the gate: the body is handed to the
	// gate-death path (request failed, backlog cleared), not to a rail.
	rails[0].MarkDown()
	rails[1].MarkDown()
	if b.BodyCount() != 0 {
		t.Fatalf("gate death left %d bodies queued", b.BodyCount())
	}
	for i, r := range rails {
		if p := s.Schedule(b, r); p != nil {
			t.Fatalf("dead rail %d scheduled %d bytes", i, len(p.Payload))
		}
	}
}

func TestSplitFlapMidTransferMopsUpOrphanedShare(t *testing.T) {
	s := strategy.NewSplit(strategy.SplitRatio)
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 2 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	c0 := s.Schedule(b, rails[0]) // rail 0 collects its pinned share
	if c0 == nil || c0.Hdr.Kind != core.KChunk {
		t.Fatalf("no pinned chunk: %v", c0)
	}
	// Rail 1 dies before ever taking its share: the orphaned range must
	// be re-served to the survivor, MinChunk-bounded, until the body is
	// fully covered.
	rails[1].MarkDown()
	total := len(c0.Payload)
	for i := 0; i < 1000 && b.BodyCount() > 0; i++ {
		p := s.Schedule(b, rails[0])
		if p == nil {
			t.Fatalf("orphaned share never re-served: %d bytes remaining", u.Remaining())
		}
		if p.Hdr.Kind != core.KChunk {
			t.Fatalf("unexpected %v", p)
		}
		if len(p.Payload) < b.MinChunk() && u.Remaining() > 0 {
			t.Fatalf("mop-up chunk %d below MinChunk %d", len(p.Payload), b.MinChunk())
		}
		total += len(p.Payload)
	}
	if total != n || u.Remaining() != 0 {
		t.Fatalf("mop-up covered %d of %d (%d remaining)", total, n, u.Remaining())
	}
}
