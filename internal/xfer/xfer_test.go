package xfer

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// rig is two engines on two in-memory rails with a background pump.
type rig struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
	drvsA          []*memdrv.Driver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{
		engA: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
		engB: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
	}
	r.gateAB = r.engA.NewGate("B")
	r.gateBA = r.engB.NewGate("A")
	for i := 0; i < 2; i++ {
		a, b := memdrv.Pair(fmt.Sprintf("x%d", i), memdrv.DefaultProfile())
		r.gateAB.AddRail(a)
		r.gateBA.AddRail(b)
		r.drvsA = append(r.drvsA, a)
	}
	return r
}

func randomPayload(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func transfer(t *testing.T, r *rig, payload []byte, opts Options) []byte {
	t.Helper()
	var out bytes.Buffer
	errs := make(chan error, 1)
	go func() {
		_, err := Recv(r.engB, r.gateBA, &out, opts)
		errs <- err
	}()
	if err := Send(r.engA, r.gateAB, bytes.NewReader(payload), int64(len(payload)), opts); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("recv: %v", err)
	}
	return out.Bytes()
}

func TestTransferSmall(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(1000, 1)
	got := transfer(t, r, payload, Options{})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTransferMultiChunk(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(1<<20+12345, 2) // uneven tail chunk
	opts := Options{ChunkSize: 128 << 10, Window: 3}
	got := transfer(t, r, payload, opts)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTransferEmpty(t *testing.T) {
	r := newRig(t)
	got := transfer(t, r, nil, Options{})
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestTransferExactChunkMultiple(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(4*(64<<10), 3)
	got := transfer(t, r, payload, Options{ChunkSize: 64 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTransferStripesAcrossRails(t *testing.T) {
	r := newRig(t)
	payload := randomPayload(2<<20, 5)
	got := transfer(t, r, payload, Options{ChunkSize: 256 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	p0, _ := r.gateAB.Rails()[0].Stats()
	p1, _ := r.gateAB.Rails()[1].Stats()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("transfer used one rail only: %d / %d", p0, p1)
	}
}

func TestTransferSurvivesRailFailure(t *testing.T) {
	r := newRig(t)
	r.drvsA[0].FailAfterSends(3)
	payload := randomPayload(1<<20, 6)
	got := transfer(t, r, payload, Options{ChunkSize: 128 << 10})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after rail failure")
	}
}

func TestTransferShortReader(t *testing.T) {
	r := newRig(t)
	err := Send(r.engA, r.gateAB, bytes.NewReader(make([]byte, 10)), 100, Options{})
	if err == nil {
		t.Fatal("short reader accepted")
	}
}
