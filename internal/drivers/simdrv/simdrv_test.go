package simdrv

import (
	"bytes"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/simnet"
)

type recorder struct {
	completes []des.Time
	arrivals  []*core.Packet
	fails     int
	w         *des.World
}

func (r *recorder) SendComplete(int)                    { r.completes = append(r.completes, r.w.Now()) }
func (r *recorder) SendFailed(int, *core.Packet, error) { r.fails++ }
func (r *recorder) RailDown(int, error)                 { r.fails++ }
func (r *recorder) Arrive(_ int, p *core.Packet) {
	r.arrivals = append(r.arrivals, p)
}

func simPair(t *testing.T) (*des.World, *Driver, *Driver, *recorder, *recorder) {
	t.Helper()
	w := des.NewWorld()
	ha := simnet.NewHost(w, "A", simnet.Opteron())
	hb := simnet.NewHost(w, "B", simnet.Opteron())
	na := ha.NewNIC(simnet.Myri10G())
	nb := hb.NewNIC(simnet.Myri10G())
	simnet.Connect(na, nb)
	da, db := New(na), New(nb)
	ra, rb := &recorder{w: w}, &recorder{w: w}
	da.Bind(0, ra)
	db.Bind(0, rb)
	return w, da, db, ra, rb
}

func TestSendArrivesDecoded(t *testing.T) {
	w, da, _, ra, rb := simPair(t)
	payload := []byte("simulated wire bytes")
	p := &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 3, MsgSegs: 1, SegLen: uint64(len(payload)), MsgLen: uint64(len(payload))},
		Payload: payload,
	}
	if err := da.Send(p); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if len(ra.completes) != 1 {
		t.Fatalf("completes = %d", len(ra.completes))
	}
	if len(rb.arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(rb.arrivals))
	}
	got := rb.arrivals[0]
	if got.Hdr.Tag != 3 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("arrival %v", got)
	}
}

func TestBufferReuseAfterCompleteIsSafe(t *testing.T) {
	// The packet is marshalled at Send time, so mutating the payload
	// after SendComplete (but before virtual delivery) must not corrupt
	// the wire bytes.
	w, da, _, _, rb := simPair(t)
	payload := []byte("stable-bytes")
	p := &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: uint64(len(payload)), MsgLen: uint64(len(payload))},
		Payload: payload,
	}
	if err := da.Send(p); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // immediately; delivery happens later in virtual time
	w.Run()
	if string(rb.arrivals[0].Payload) != "stable-bytes" {
		t.Fatalf("wire saw mutated buffer: %q", rb.arrivals[0].Payload)
	}
}

func TestSendOnDownNICFails(t *testing.T) {
	_, da, _, _, _ := simPair(t)
	da.NIC().SetDown(true)
	err := da.Send(&core.Packet{Hdr: core.Header{Kind: core.KData}})
	if err == nil {
		t.Fatal("send on down NIC accepted")
	}
}

func TestProfileDerivedFromParams(t *testing.T) {
	_, da, _, _, _ := simPair(t)
	p := da.Profile()
	myri := simnet.Myri10G()
	if p.Name != "myri10g" || p.Bandwidth != myri.Bandwidth || p.EagerMax != myri.EagerMax || p.PIOMax != myri.PIOMax {
		t.Fatalf("profile %+v", p)
	}
	if p.Latency < 2*time.Microsecond || p.Latency > 4*time.Microsecond {
		t.Fatalf("declared latency %v out of the calibrated range", p.Latency)
	}
}

func TestSmallMessageLatencyMatchesPaper(t *testing.T) {
	// One-way 4-byte latency over the Myri-10G model should be ~2.8 us.
	w, da, _, _, rb := simPair(t)
	payload := []byte{1, 2, 3, 4}
	p := &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: 4, MsgLen: 4},
		Payload: payload,
	}
	if err := da.Send(p); err != nil {
		t.Fatal(err)
	}
	var arriveAt des.Time
	w.Run()
	if len(rb.arrivals) != 1 {
		t.Fatal("no arrival")
	}
	arriveAt = w.Now()
	us := float64(arriveAt) / 1000
	if us < 2.0 || us > 3.6 {
		t.Fatalf("one-way latency %.2f us, want ~2.8", us)
	}
}

func TestName(t *testing.T) {
	_, da, _, _, _ := simPair(t)
	if da.Name() != "sim:A/myri10g" {
		t.Fatalf("Name = %q", da.Name())
	}
}
