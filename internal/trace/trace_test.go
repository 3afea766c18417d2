package trace

import (
	"strings"
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

func TestCountAndPosted(t *testing.T) {
	c := New(0)
	hook := c.Hook()
	hook(ev(core.KData, 0, 10, 0))
	hook(ev(core.KData, 1, 10, 0))
	hook(ev(core.KRTS, 0, 0, 0))
	hook(core.TraceEvent{Ev: "sent", Kind: core.KData, Rail: 0})
	if c.Count(nil) != 4 {
		t.Fatalf("Count(nil) = %d", c.Count(nil))
	}
	if c.Posted(core.KData, -1) != 2 {
		t.Fatalf("Posted any = %d", c.Posted(core.KData, -1))
	}
	if c.Posted(core.KData, 1) != 1 {
		t.Fatalf("Posted rail1 = %d", c.Posted(core.KData, 1))
	}
	if c.Posted(core.KRTS, 0) != 1 {
		t.Fatal("RTS not counted")
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

func TestDump(t *testing.T) {
	c := New(0)
	c.Hook()(core.TraceEvent{Now: 123, Ev: "post", Gate: "B", Rail: 1, Kind: core.KData, Len: 42, Tag: 5, Msg: 2})
	var sb strings.Builder
	c.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"post", "gate=B", "rail=1", "len=42", "tag=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump %q missing %q", out, want)
		}
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	evs := []core.TraceEvent{
		{Now: 0, Ev: "post", Rail: 0, Kind: core.KRTS},
		{Now: 100, Ev: "sent", Rail: 0},
		{Now: 200, Ev: "post", Rail: 0, Kind: core.KChunk, Len: 1000},
		{Now: 200, Ev: "post", Rail: 1, Kind: core.KChunk, Len: 800},
		{Now: 900, Ev: "sent", Rail: 0},
		{Now: 1000, Ev: "sent", Rail: 1},
	}
	out := Timeline(evs, 40)
	if !strings.Contains(out, "rail0 ") || !strings.Contains(out, "rail1 ") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "R") || !strings.Contains(out, "K") {
		t.Fatalf("missing kind marks:\n%s", out)
	}
	if !strings.Contains(out, "==") {
		t.Fatalf("missing busy bars:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if out := Timeline(nil, 40); !strings.Contains(out, "no posts") {
		t.Fatalf("empty timeline: %q", out)
	}
}

func TestTimelineMarksFaults(t *testing.T) {
	evs := []core.TraceEvent{
		{Now: 0, Ev: "post", Rail: 0, Kind: core.KChunk, Len: 1000},
		{Now: 0, Ev: "post", Rail: 1, Kind: core.KChunk, Len: 800},
		{Now: 500, Ev: "fail", Rail: 0, Kind: core.KChunk, Len: 1000}, // died with a packet in flight
		{Now: 1000, Ev: "sent", Rail: 1},
	}
	out := Timeline(evs, 40)
	lines := strings.Split(out, "\n")
	var rail0, rail1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "rail0 ") {
			rail0 = l
		}
		if strings.HasPrefix(l, "rail1 ") {
			rail1 = l
		}
	}
	if !strings.Contains(rail0, "X") {
		t.Fatalf("rail0 fault not marked:\n%s", out)
	}
	if strings.Contains(rail1, "X") {
		t.Fatalf("fault mark leaked onto the surviving rail:\n%s", out)
	}
}

func TestTimelineMarksIdleRailDeath(t *testing.T) {
	// A rail taken down by chaos while idle emits "fail" with no open
	// span (engine traces an empty header); the X must still render.
	evs := []core.TraceEvent{
		{Now: 0, Ev: "post", Rail: 1, Kind: core.KData, Len: 64},
		{Now: 400, Ev: "fail", Rail: 0},
		{Now: 1000, Ev: "sent", Rail: 1},
	}
	out := Timeline(evs, 40)
	if !strings.Contains(out, "rail0 ") || !strings.Contains(out, "X") {
		t.Fatalf("idle rail death not marked:\n%s", out)
	}
}

func TestTimelineMarksHedgeRace(t *testing.T) {
	// A hedged send: primary D on rail 0, speculative duplicate H on
	// rail 1; the primary wins and the duplicate is cancelled — an x on
	// the duplicate's lane. Cancel events carry no rail, so the x must
	// land via the (tag, msg) of the duplicate's post.
	hedgeTag := core.ReservedTag(core.HedgeClass, 1)
	evs := []core.TraceEvent{
		{Now: 0, Ev: "post", Rail: 0, Kind: core.KData, Tag: 7, Msg: 3, Len: 512},
		{Now: 100, Ev: "post", Rail: 1, Kind: core.KData, Tag: hedgeTag, Msg: 3, Len: 512},
		{Now: 500, Ev: "sent", Rail: 0, Tag: 7, Msg: 3},
		{Now: 600, Ev: "cancel", Rail: -1, Kind: core.KData, Tag: hedgeTag, Msg: 3},
		{Now: 700, Ev: "sent", Rail: 1, Tag: hedgeTag, Msg: 3},
	}
	out := Timeline(evs, 40)
	var rail0, rail1 string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "rail0 ") {
			rail0 = l
		}
		if strings.HasPrefix(l, "rail1 ") {
			rail1 = l
		}
	}
	if !strings.Contains(rail0, "D") || strings.Contains(rail0, "H") {
		t.Fatalf("primary lane wrong:\n%s", out)
	}
	if !strings.Contains(rail1, "H") {
		t.Fatalf("hedge duplicate not marked H:\n%s", out)
	}
	if !strings.Contains(rail1, "x") {
		t.Fatalf("cancelled loser not marked x:\n%s", out)
	}
	if strings.Contains(rail0, "x") {
		t.Fatalf("cancel mark leaked onto the winning lane:\n%s", out)
	}
}

func TestTimelineUnterminatedSpan(t *testing.T) {
	evs := []core.TraceEvent{
		{Now: 0, Ev: "post", Rail: 0, Kind: core.KData},
		{Now: 50, Ev: "sent", Rail: 0},
		{Now: 60, Ev: "post", Rail: 0, Kind: core.KData}, // never completes
	}
	out := Timeline(evs, 40)
	if !strings.Contains(out, "D") {
		t.Fatalf("in-flight span dropped:\n%s", out)
	}
}
