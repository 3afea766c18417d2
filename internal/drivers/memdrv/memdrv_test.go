package memdrv

import (
	"bytes"
	"testing"

	"newmad/internal/core"
)

// recorder captures Events callbacks.
type recorder struct {
	completes int
	fails     []error
	arrivals  []*core.Packet
}

func (r *recorder) SendComplete(int)                          { r.completes++ }
func (r *recorder) SendFailed(_ int, _ *core.Packet, e error) { r.fails = append(r.fails, e) }
func (r *recorder) RailDown(_ int, e error)                   { r.fails = append(r.fails, e) }
func (r *recorder) Arrive(_ int, p *core.Packet)              { r.arrivals = append(r.arrivals, p) }

func pkt(payload string) *core.Packet {
	return &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: uint64(len(payload)), MsgLen: uint64(len(payload))},
		Payload: []byte(payload),
	}
}

func boundPair(t *testing.T) (*Driver, *Driver, *recorder, *recorder) {
	t.Helper()
	a, b := Pair("t", DefaultProfile())
	ra, rb := &recorder{}, &recorder{}
	a.Bind(0, ra)
	b.Bind(0, rb)
	return a, b, ra, rb
}

func TestSendDeliversToPeer(t *testing.T) {
	a, _, ra, rb := boundPair(t)
	if err := a.Send(pkt("hello")); err != nil {
		t.Fatal(err)
	}
	if ra.completes != 1 {
		t.Fatalf("completes = %d", ra.completes)
	}
	if len(rb.arrivals) != 1 || !bytes.Equal(rb.arrivals[0].Payload, []byte("hello")) {
		t.Fatalf("arrivals = %v", rb.arrivals)
	}
}

func TestPayloadIsCopiedAtSendTime(t *testing.T) {
	a, _, _, rb := boundPair(t)
	data := []byte("mutate-me")
	p := pkt(string(data))
	p.Payload = data
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // mutation after Send must not reach the peer
	if string(rb.arrivals[0].Payload) != "mutate-me" {
		t.Fatalf("peer saw mutated payload %q", rb.arrivals[0].Payload)
	}
}

func TestSendOnDownDriver(t *testing.T) {
	a, _, _, _ := boundPair(t)
	a.SetDown(true)
	if err := a.Send(pkt("x")); err == nil {
		t.Fatal("send on down driver accepted")
	}
	a.SetDown(false)
	if err := a.Send(pkt("x")); err != nil {
		t.Fatalf("send after revive: %v", err)
	}
}

func TestFailNextSend(t *testing.T) {
	a, _, ra, rb := boundPair(t)
	a.FailNextSend()
	if err := a.Send(pkt("doomed")); err != nil {
		t.Fatalf("FailNextSend should accept then fail, got sync error %v", err)
	}
	if len(ra.fails) != 1 {
		t.Fatalf("fails = %d", len(ra.fails))
	}
	if ra.completes != 0 || len(rb.arrivals) != 0 {
		t.Fatal("failed send completed or arrived")
	}
}

func TestFailAfterSends(t *testing.T) {
	a, _, ra, rb := boundPair(t)
	a.FailAfterSends(2)
	for i := 0; i < 3; i++ {
		if err := a.Send(pkt("p")); err != nil {
			t.Fatal(err)
		}
	}
	if ra.completes != 2 || len(ra.fails) != 1 {
		t.Fatalf("completes=%d fails=%d, want 2,1", ra.completes, len(ra.fails))
	}
	if len(rb.arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(rb.arrivals))
	}
}

func TestDropNextSends(t *testing.T) {
	a, _, ra, rb := boundPair(t)
	a.DropNextSends(1)
	_ = a.Send(pkt("lost"))
	_ = a.Send(pkt("kept"))
	if ra.completes != 2 {
		t.Fatalf("completes = %d (drops still complete)", ra.completes)
	}
	if len(rb.arrivals) != 1 || string(rb.arrivals[0].Payload) != "kept" {
		t.Fatalf("arrivals = %v", rb.arrivals)
	}
}

func TestPollOrderCompletionsBeforeArrivals(t *testing.T) {
	a, b, _, _ := boundPair(t)
	// Delivery is synchronous: a's send completes (right after the
	// packet lands at b) before b's reply can arrive at a.
	var order []string
	ra2 := &orderRecorder{order: &order}
	a.Bind(0, ra2)
	_ = a.Send(pkt("x"))
	_ = b.Send(pkt("y"))
	if len(order) != 2 || order[0] != "complete" || order[1] != "arrive" {
		t.Fatalf("order = %v", order)
	}
}

type orderRecorder struct{ order *[]string }

func (r *orderRecorder) SendComplete(int)                    { *r.order = append(*r.order, "complete") }
func (r *orderRecorder) SendFailed(int, *core.Packet, error) { *r.order = append(*r.order, "fail") }
func (r *orderRecorder) RailDown(int, error)                 { *r.order = append(*r.order, "down") }
func (r *orderRecorder) Arrive(int, *core.Packet)            { *r.order = append(*r.order, "arrive") }

func TestSendBeforePeerBindBuffersArrival(t *testing.T) {
	a, b := Pair("t", DefaultProfile())
	ra := &recorder{}
	a.Bind(0, ra)
	// b is not bound yet: the packet must be buffered, not panic.
	if err := a.Send(pkt("early")); err != nil {
		t.Fatal(err)
	}
	rb := &recorder{}
	b.Bind(0, rb)
	if len(rb.arrivals) != 1 || string(rb.arrivals[0].Payload) != "early" {
		t.Fatalf("pre-bind packet lost: %v", rb.arrivals)
	}
}

func TestNameAndProfile(t *testing.T) {
	a, b := Pair("link", DefaultProfile())
	if a.Name() == b.Name() {
		t.Fatal("pair ends share a name")
	}
	if a.Profile().Name != "mem" {
		t.Fatalf("profile %+v", a.Profile())
	}
}

func TestCloseMakesDown(t *testing.T) {
	a, _, _, _ := boundPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(pkt("x")); err == nil {
		t.Fatal("send after close accepted")
	}
}
