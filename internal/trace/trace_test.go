package trace

import (
	"testing"

	"newmad/internal/core"
)

func ev(kind core.Kind, rail, n, agg int) core.TraceEvent {
	return core.TraceEvent{Ev: "post", Kind: kind, Rail: rail, Len: n, Agg: agg}
}

func TestCollectorAccumulates(t *testing.T) {
	c := New(0)
	hook := c.Hook()
	hook(ev(core.KData, 0, 100, 0))
	hook(ev(core.KChunk, 1, 2000, 0))
	if got := len(c.Events()); got != 2 {
		t.Fatalf("events = %d", got)
	}
}

func TestCollectorRingBound(t *testing.T) {
	const max = 3
	c := New(max)
	hook := c.Hook()
	const n = 3*max + 1
	for i := 0; i < n; i++ {
		hook(core.TraceEvent{Ev: "post", Len: i})
	}
	evs := c.Events()
	if len(evs) != max {
		t.Fatalf("kept %d, want %d", len(evs), max)
	}
	for i, e := range evs {
		if want := n - max + i; e.Len != want {
			t.Fatalf("ring slot %d holds event %d, want %d (oldest first): %+v", i, e.Len, want, evs)
		}
	}
	c.Reset()
	if got := c.Events(); len(got) != 0 {
		t.Fatalf("Reset after wrap left %d events: %+v", len(got), got)
	}
	hook(core.TraceEvent{Ev: "post", Len: n})
	if got := c.Events(); len(got) != 1 || got[0].Len != n {
		t.Fatalf("after Reset, events %+v, want just %d", got, n)
	}
}

func TestBytesOnRail(t *testing.T) {
	c := New(0)
	hook := c.Hook()
	hook(ev(core.KData, 0, 100, 0))
	hook(ev(core.KChunk, 0, 900, 0))
	hook(ev(core.KData, 1, 50, 0))
	if c.BytesOnRail(0) != 1000 {
		t.Fatalf("rail0 bytes = %d", c.BytesOnRail(0))
	}
	if c.BytesOnRail(1) != 50 {
		t.Fatalf("rail1 bytes = %d", c.BytesOnRail(1))
	}
}

func TestMaxAgg(t *testing.T) {
	c := New(0)
	hook := c.Hook()
	hook(ev(core.KData, 0, 10, 3))
	hook(ev(core.KData, 0, 10, 7))
	hook(ev(core.KData, 0, 10, 2))
	if c.MaxAgg() != 7 {
		t.Fatalf("MaxAgg = %d", c.MaxAgg())
	}
}

func TestReset(t *testing.T) {
	c := New(0)
	c.Hook()(ev(core.KData, 0, 1, 0))
	c.Reset()
	if len(c.Events()) != 0 {
		t.Fatal("Reset left events")
	}
}
