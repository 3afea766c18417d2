package strategy_test

import (
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

func TestSplitDynFirstBiteIsBandwidthShare(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 2 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	if p := s.Schedule(b, rails[0]); p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("no rendezvous: %v", p)
	}
	b.Grant(u)
	c0 := s.Schedule(b, rails[0])
	want := float64(n) * 1200 / 2050
	got := float64(len(c0.Payload))
	if got < want*0.98 || got > want*1.02 {
		t.Fatalf("first bite %d, want ~%.0f", len(c0.Payload), want)
	}
	// Second rail takes its share of the REMAINDER.
	c1 := s.Schedule(b, rails[1])
	rem := float64(n) - got
	want1 := rem * 850 / 2050
	if float64(len(c1.Payload)) < want1*0.95 || float64(len(c1.Payload)) > want1*1.05 {
		t.Fatalf("second bite %d, want ~%.0f", len(c1.Payload), want1)
	}
	if u.Remaining() == 0 {
		t.Fatal("dynamic split drained the body in two bites; should leave a tail")
	}
}

func TestSplitDynDrainsCompletely(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0]) // RTS
	b.Grant(u)
	total := 0
	for i := 0; i < 1000 && b.BodyCount() > 0; i++ {
		p := s.Schedule(b, rails[i%2])
		if p == nil {
			t.Fatalf("stalled with %d bytes remaining", u.Remaining())
		}
		if p.Hdr.Kind != core.KChunk {
			t.Fatalf("unexpected %v", p)
		}
		if len(p.Payload) < b.MinChunk() && u.Remaining() > 0 {
			t.Fatalf("chunk %d below MinChunk %d", len(p.Payload), b.MinChunk())
		}
		total += len(p.Payload)
	}
	if total != n {
		t.Fatalf("chunks cover %d of %d", total, n)
	}
}

func TestSplitDynSingleRailTakesAll(t *testing.T) {
	s := strategy.Must("split-dyn")
	b, rails := fixture(t, s, myriProf(), quadProf())
	n := 1 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	s.Schedule(b, rails[0])
	b.Grant(u)
	rails[1].MarkDown()
	c := s.Schedule(b, rails[0])
	if len(c.Payload) != n {
		t.Fatalf("sole rail took %d of %d", len(c.Payload), n)
	}
}

func TestSplitDynName(t *testing.T) {
	if strategy.Must("split-dyn").Name() != "split-dyn" {
		t.Fatal("name")
	}
	s, err := strategy.New("split-dyn")
	if err != nil || s.Name() != "split-dyn" {
		t.Fatal("registry")
	}
}
