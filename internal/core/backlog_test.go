package core_test

import (
	"bytes"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// backlogFixture builds a gate with rails but drives the backlog by hand.
func backlogFixture(t *testing.T, rails int) (*core.Backlog, []*core.Rail) {
	t.Helper()
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("peer")
	for i := 0; i < rails; i++ {
		a, _ := memdrv.Pair("x", memdrv.DefaultProfile())
		g.AddRail(a)
	}
	return g.Backlog(), g.Rails()
}

func unit(tag uint32, msg uint64, data []byte) *core.Unit {
	return &core.Unit{
		Hdr: core.Header{
			Kind: core.KData, Tag: tag, MsgID: msg, MsgSegs: 1,
			MsgLen: uint64(len(data)), SegLen: uint64(len(data)),
		},
		Data: data,
	}
}

func TestBacklogSegQueueFIFO(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	for i := 0; i < 3; i++ {
		b.PushSeg(unit(1, uint64(i), []byte{byte(i)}))
	}
	if b.SegCount() != 3 {
		t.Fatalf("SegCount = %d", b.SegCount())
	}
	for i := 0; i < 3; i++ {
		u := b.PopSeg()
		if u.Hdr.MsgID != uint64(i) {
			t.Fatalf("pop %d got msg %d", i, u.Hdr.MsgID)
		}
	}
	if b.PopSeg() != nil {
		t.Fatal("PopSeg on empty queue")
	}
	if !b.Empty() {
		t.Fatal("backlog should be empty")
	}
}

func TestBacklogTakeSeg(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	for i := 0; i < 4; i++ {
		b.PushSeg(unit(1, uint64(i), []byte{byte(i)}))
	}
	u := b.TakeSeg(2)
	if u.Hdr.MsgID != 2 {
		t.Fatalf("TakeSeg(2) got msg %d", u.Hdr.MsgID)
	}
	want := []uint64{0, 1, 3}
	for i, w := range want {
		if got := b.Seg(i).Hdr.MsgID; got != w {
			t.Fatalf("after take, seg[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestBacklogCtrlQueue(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	if b.PopCtrl() != nil {
		t.Fatal("PopCtrl on empty")
	}
	p1 := &core.Packet{Hdr: core.Header{Kind: core.KCTS, RdvID: 1}}
	p2 := &core.Packet{Hdr: core.Header{Kind: core.KCTS, RdvID: 2}}
	b.PushCtrl(p1)
	b.PushCtrl(p2)
	if got := b.PopCtrl(); got != p1 {
		t.Fatal("ctrl not FIFO")
	}
	if got := b.PopCtrl(); got != p2 {
		t.Fatal("ctrl lost second packet")
	}
}

func TestMakeEagerSingleIsZeroCopy(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	data := []byte("abcdef")
	p := b.MakeEager(unit(9, 0, data))
	if &p.Payload[0] != &data[0] {
		t.Fatal("single-unit MakeEager copied the payload")
	}
	if p.Hdr.Agg != 0 || p.Hdr.Kind != core.KData || p.Hdr.Tag != 9 {
		t.Fatalf("header %+v", p.Hdr)
	}
}

// TestMakeEagerAggregatesRecords reads an aggregate the way a driver
// does, through EncodeTo: the records are gathered from the application
// buffers, and the wire bytes are the contiguous [header|bytes] layout.
func TestMakeEagerAggregatesRecords(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	u1 := unit(1, 0, []byte("aaaa"))
	u2 := unit(2, 5, []byte("bb"))
	p := b.MakeEager(u1, u2)
	if p.Hdr.Agg != 2 {
		t.Fatalf("Agg = %d", p.Hdr.Agg)
	}
	wantLen := 2*core.HeaderLen + 6
	if p.Len() != wantLen || p.WireLen() != core.HeaderLen+wantLen {
		t.Fatalf("payload %d bytes (wire %d), want %d", p.Len(), p.WireLen(), wantLen)
	}
	wire := make([]byte, p.WireLen())
	if n := p.EncodeTo(wire); n != len(wire) {
		t.Fatalf("EncodeTo wrote %d bytes, want %d", n, len(wire))
	}
	outer, err := core.DecodeHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Agg != 2 || outer.PayLen != uint32(wantLen) {
		t.Fatalf("outer header %+v", outer)
	}
	payload := wire[core.HeaderLen:]
	// First record decodes back to u1's header and data.
	h, err := core.DecodeHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tag != 1 || h.PayLen != 4 {
		t.Fatalf("record 1 header %+v", h)
	}
	if !bytes.Equal(payload[core.HeaderLen:core.HeaderLen+4], []byte("aaaa")) {
		t.Fatal("record 1 data")
	}
	h2, err := core.DecodeHeader(payload[core.HeaderLen+4:])
	if err != nil {
		t.Fatal(err)
	}
	if h2.Tag != 2 || h2.MsgID != 5 || h2.PayLen != 2 {
		t.Fatalf("record 2 header %+v", h2)
	}
	if !bytes.Equal(payload[2*core.HeaderLen+4:], []byte("bb")) {
		t.Fatal("record 2 data")
	}
}

func TestMakeEagerNoUnitsPanics(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MakeEager() did not panic")
		}
	}()
	b.MakeEager()
}

func TestStartRdvRegistersBody(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	u := unit(3, 0, make([]byte, 100000))
	p := b.StartRdv(u)
	if p.Hdr.Kind != core.KRTS {
		t.Fatalf("kind %v", p.Hdr.Kind)
	}
	if p.Hdr.RdvID == 0 {
		t.Fatal("no rdv id assigned")
	}
	if p.Hdr.SegLen != 100000 {
		t.Fatalf("SegLen %d", p.Hdr.SegLen)
	}
	if len(p.Payload) != 0 {
		t.Fatal("RTS with payload")
	}
	if b.BodyCount() != 0 {
		t.Fatal("body schedulable before CTS")
	}
}

func TestChunkFromCarvesInOrder(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	data := fill(100, 1)
	u := unit(1, 0, data)
	b.StartRdv(u)
	b.Grant(u)
	if b.BodyCount() != 1 {
		t.Fatalf("BodyCount = %d", b.BodyCount())
	}
	p1 := b.ChunkFrom(u, 30)
	if p1.Hdr.Off != 0 || len(p1.Payload) != 30 {
		t.Fatalf("chunk1 off=%d len=%d", p1.Hdr.Off, len(p1.Payload))
	}
	p2 := b.ChunkFrom(u, 0) // rest
	if p2.Hdr.Off != 30 || len(p2.Payload) != 70 {
		t.Fatalf("chunk2 off=%d len=%d", p2.Hdr.Off, len(p2.Payload))
	}
	if b.BodyCount() != 0 {
		t.Fatal("drained body still schedulable")
	}
	if u.Remaining() != 0 {
		t.Fatalf("Remaining = %d", u.Remaining())
	}
}

func TestChunkSpanSplitsSpans(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	data := fill(100, 2)
	u := unit(1, 0, data)
	b.StartRdv(u)
	b.Grant(u)
	p := b.ChunkSpan(u, 40, 70)
	if p.Hdr.Off != 40 || len(p.Payload) != 30 {
		t.Fatalf("chunk off=%d len=%d", p.Hdr.Off, len(p.Payload))
	}
	if u.Remaining() != 70 {
		t.Fatalf("Remaining = %d, want 70", u.Remaining())
	}
	from, to, ok := u.FirstSpan()
	if !ok || from != 0 || to != 40 {
		t.Fatalf("first span [%d,%d) ok=%v", from, to, ok)
	}
	// Carve the leading hole, then the tail.
	b.ChunkSpan(u, 0, 40)
	if b.BodyCount() != 1 {
		t.Fatal("body with remaining tail dropped early")
	}
	b.ChunkSpan(u, 70, 100)
	if b.BodyCount() != 0 || u.Remaining() != 0 {
		t.Fatal("body not drained")
	}
}

func TestChunkSpanOutsideSpansPanics(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	u := unit(1, 0, fill(100, 3))
	b.StartRdv(u)
	b.Grant(u)
	b.ChunkSpan(u, 0, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping ChunkSpan did not panic")
		}
	}()
	b.ChunkSpan(u, 40, 60)
}

func TestChunkFromDrainedPanics(t *testing.T) {
	b, _ := backlogFixture(t, 1)
	u := unit(1, 0, fill(10, 4))
	b.StartRdv(u)
	b.Grant(u)
	b.ChunkFrom(u, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("ChunkFrom on drained body did not panic")
		}
	}()
	b.ChunkFrom(u, 0)
}

func TestBacklogThresholdAccessors(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance"), AggThreshold: 1234, MinChunk: 5678})
	g := eng.NewGate("p")
	if g.Backlog().AggThreshold() != 1234 || g.Backlog().MinChunk() != 5678 {
		t.Fatal("threshold accessors")
	}
}

func TestConfigDefaults(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("p")
	if g.Backlog().AggThreshold() != 16<<10 || g.Backlog().MinChunk() != 16<<10 {
		t.Fatalf("defaults: agg=%d chunk=%d", g.Backlog().AggThreshold(), g.Backlog().MinChunk())
	}
}
